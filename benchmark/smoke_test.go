package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// testSpec loads the repository's BENCHMARK.json, one directory up from the
// package under test.
func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// buildServe compiles the daemon under test once per test binary.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rlbf-serve")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/rlbf-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building rlbf-serve: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload at about 1/50 size, untraced and traced, in
// this process: the harness must keep compiling against the repo's packages,
// every correctness check must hold, and every metric of the run's kind must
// be reported (end-to-end ones non-zero).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	sp := testSpec(t)
	serveBin := buildServe(t)
	outDir := t.TempDir()
	defer killAllChildren()
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			t0 := time.Now()
			c := newRunCtx(sp, w.Name, 7, 0.25, traced, true, serveBin, outDir)
			if err := runners[w.Name](c); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			r := c.finish()
			for _, p := range c.problems {
				t.Errorf("%s traced=%v: check failed: %s", w.Name, traced, p)
			}
			if r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.Name, traced, r.Failed, r.Attempted)
			}
			want := c.defs()
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, spec has %d", w.Name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := r.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", w.Name, traced, m.Name, v.Unit, m.Unit)
				}
			}
			t.Logf("%s traced=%v: %.2fs %v", w.Name, traced, time.Since(t0).Seconds(), c.notes)
			if traced {
				if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.Name+".json")); err != nil && w.Name != "train-sdsc" {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}
}

func TestCompareAppliesBounds(t *testing.T) {
	sp := &spec{EndToEnd: []metricDef{{"work_per_s", "1/s", "higher", 0.05}, {"wait_ms", "ms", "lower", 0.05}}}
	mk := func(rate, wait []float64) resultsFile {
		return resultsFile{
			EndToEnd: map[string]map[string][]float64{"replay-easy": {"work_per_s": rate, "wait_ms": wait}}}
	}
	old := mk([]float64{100, 101, 99, 100, 100}, []float64{10, 10.1, 9.9, 10, 10})
	rows, reg := compareResults(sp, old, mk([]float64{99, 100, 98, 99, 99}, []float64{10.2, 10.3, 10.1, 10.2, 10.2}))
	if reg != 0 || len(rows) != 2 {
		t.Errorf("changes within the bounds: %d regressions, rows %v", reg, rows)
	}
	_, reg = compareResults(sp, old, mk([]float64{90, 91, 89, 90, 90}, []float64{10, 10.1, 9.9, 10, 10}))
	if reg != 1 {
		t.Errorf("a 10%% throughput drop against a 5%% bound: %d regressions, want 1", reg)
	}
	_, reg = compareResults(sp, old, mk([]float64{120, 121, 119, 120, 120}, []float64{8, 8.1, 7.9, 8, 8}))
	if reg != 0 {
		t.Errorf("an improvement was flagged: %d regressions", reg)
	}
}
