package experiments

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// The acceptance bar of the parallel cell runner: the rendered output of the
// full experiment set must be byte-identical at any worker count. Cells are
// seeded per (cell, sequence) and assemble by index, so scheduling order
// must not be observable.
func TestRunManyDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("RL experiment skipped in -short mode")
	}
	sc := TinyScale()
	sc.TraceJobs = 300
	sc.Eval = evalCfg(2, 100)

	var ref string
	for _, w := range []int{1, 4, 8} {
		sc.Workers = w
		out, err := RunMany([]string{"all"}, sc, io.Discard)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if ref == "" {
			ref = out
			continue
		}
		if out != ref {
			t.Fatalf("RunMany output differs between Workers=1 and Workers=%d:\n--- w=1 ---\n%s\n--- w=%d ---\n%s",
				w, ref, w, out)
		}
	}
}

// countingLogWriter counts training announcements; safe for concurrent use.
type countingLogWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *countingLogWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *countingLogWriter) trainings() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Count(w.buf.String(), "training RL-")
}

// TestZooSingleflight hammers one (policy, trace) key from many goroutines:
// exactly one training must run, every caller must get the same agent, and
// the path must be clean under -race (the CI race job runs this).
func TestZooSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("RL experiment skipped in -short mode")
	}
	sc := TinyScale()
	sc.TraceJobs = 300
	sc.Eval = evalCfg(2, 100)
	tr := Workloads(sc.TraceJobs, sc.Seed)[0]
	zoo := NewZoo()
	log := &countingLogWriter{}

	const callers = 8
	agents := make([]*core.Agent, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, _, err := zoo.Get(fcfs(), tr, sc, log)
			if err != nil {
				t.Error(err)
				return
			}
			agents[i] = a
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if agents[i] != agents[0] {
			t.Fatalf("caller %d got a different agent instance", i)
		}
	}
	if n := log.trainings(); n != 1 {
		t.Fatalf("%d trainings ran for one key, want 1 (singleflight)", n)
	}
}

// Two concurrent prefetches of the same keys must still train each key once.
func TestZooPrefetchDedupes(t *testing.T) {
	if testing.Short() {
		t.Skip("RL experiment skipped in -short mode")
	}
	sc := TinyScale()
	sc.TraceJobs = 300
	sc.Eval = evalCfg(2, 100)
	workloads := Workloads(sc.TraceJobs, sc.Seed)[:2]
	zoo := NewZoo()
	log := &countingLogWriter{}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := zoo.Prefetch(sc, log, []sched.Policy{fcfs()}, workloads); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := log.trainings(); n != len(workloads) {
		t.Fatalf("%d trainings for %d keys prefetched twice, want %d", n, len(workloads), len(workloads))
	}
}

// RunMany runs the experiments in request order: each experiment's progress
// lines, unprefixed, follow its own header and precede the next header.
func TestRunManyLogsInOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("RL experiment skipped in -short mode")
	}
	sc := TinyScale()
	sc.TraceJobs = 300
	sc.Eval = evalCfg(2, 100)
	var log bytes.Buffer
	if _, err := RunMany([]string{"fig4", "table2"}, sc, &log); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
	if first, last := lines[0], lines[len(lines)-1]; first != "== running fig4 (scale tiny) ==" ||
		last != "== running table2 (scale tiny) ==" {
		t.Fatalf("log starts %q and ends %q, want fig4's header first and table2's last", first, last)
	}
	if n := strings.Count(log.String(), "training RL-"); n != 4 {
		t.Fatalf("%d trainings under fig4's header, want 4:\n%s", n, log.String())
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "[") {
			t.Fatalf("prefixed progress line %q", line)
		}
	}
}

// RunMany must keep writing nothing when log is nil (io.Discard path).
func TestRunManyNilLog(t *testing.T) {
	sc := TinyScale()
	sc.TraceJobs = 250
	sc.Workers = 4
	out, err := RunMany([]string{"table2", "fig1", "loadsweep"}, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 2", "Figure 1", "Load sweep"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}
