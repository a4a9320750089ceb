// Command rlbf-bench is the repository's benchmark (BENCHMARK.json at the
// root names it). Run it through run.sh, which builds it and rlbf-serve
// into .bench_build/ first:
//
//	bash benchmark/run.sh --workload serve-paced --seed 1 --seconds 10 --trace 0
//	    one run; the last line of stdout is the result as JSON. --trace 0
//	    reports the end-to-end metrics, --trace 1 the per-layer metrics.
//	bash benchmark/run.sh -all
//	    every workload untraced, then traced; prints every metric by name
//	    with its unit; exits 1 if any correctness check fails.
//	bash benchmark/run.sh -repeat 10 [--workload W]
//	    N untraced runs per workload (or of W) on seeds seed..seed+N-1;
//	    prints median, quartiles and spread per end-to-end metric.
//	bash benchmark/run.sh compare old.json new.json
//	    applies each end-to-end metric's bound to two result files written
//	    by -all or -repeat (-o); exits 1 on a regression.
//
// Workloads, metrics, units and bounds are read from BENCHMARK.json in the
// working directory.
//
// -smoke shrinks every workload about fiftyfold; README.md has the rest.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlbf-bench: %v (run from the root of a checkout)\n", err)
		os.Exit(2)
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(sp, os.Args[2:]))
	}
	workload := flag.String("workload", "", "run this one workload and print its result as JSON; with -all or -repeat, run only this one")
	seed := flag.Uint64("seed", 1, "every input is generated from this seed")
	seconds := flag.Float64("seconds", float64(sp.RunSeconds), "how long a run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	all := flag.Bool("all", false, "run every workload untraced then traced and print every metric")
	repeat := flag.Int("repeat", 0, "run every workload this many times untraced (seeds seed..seed+N-1) and print the spread")
	smoke := flag.Bool("smoke", false, "shrink every workload about fiftyfold (harness check, not a measurement)")
	serveBin := flag.String("serve-bin", filepath.Join(".bench_build", "bin", "rlbf-serve"), "the rlbf-serve binary under test")
	outDir := flag.String("out", filepath.Join("benchmark", "out"), "directory for daemon files and trace-<workload>.json")
	resultFile := flag.String("o", "", "-all/-repeat: also write the results to this file, for compare")
	flag.Parse()

	switch {
	case *workload != "" && runners[*workload] == nil:
		fmt.Fprintf(os.Stderr, "rlbf-bench: no workload %q\n", *workload)
		os.Exit(2)
	case *all || *repeat > 0:
		s := suite{spec: sp, seed: *seed, seconds: *seconds, smoke: *smoke, serveBin: *serveBin, outDir: *outDir,
			repeat: max(*repeat, 1), traced: *all, only: *workload}
		os.Exit(s.run(*resultFile))
	case *workload != "":
		os.Exit(runOne(sp, *workload, *seed, *seconds, *trace == 1, *smoke, *serveBin, *outDir))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runOne is the driver's contract: one workload, one result line.
func runOne(sp *spec, name string, seed uint64, seconds float64, traced, smoke bool, serveBin, outDir string) int {
	if seconds <= 0 {
		fmt.Fprintln(os.Stderr, "rlbf-bench: -seconds must be positive")
		return 2
	}
	if strings.HasPrefix(name, "serve-") {
		if _, err := os.Stat(serveBin); err != nil {
			fmt.Fprintf(os.Stderr, "rlbf-bench: %v (run through benchmark/run.sh, which builds it)\n", err)
			return 2
		}
	}
	c := newRunCtx(sp, name, seed, seconds, traced, smoke, serveBin, outDir)
	stop := killChildrenOnSignal()
	err := runners[name](c)
	killAllChildren()
	stop()
	res := c.finish()
	c.report(os.Stderr)
	if err != nil {
		// Not a measurement at all: no result line, non-zero exit.
		fmt.Fprintf(os.Stderr, "rlbf-bench: %s: %v\n", name, err)
		return 1
	}
	fmt.Println(mustJSON(res))
	return 0
}

// suite runs workloads as child processes of this same binary, one fresh
// process per run, exactly as the driver would.
type suite struct {
	spec     *spec
	seed     uint64
	seconds  float64
	smoke    bool
	serveBin string
	outDir   string
	repeat   int
	traced   bool
	only     string // one workload instead of all
}

// resultsFile is what -o writes and compare reads.
type resultsFile struct {
	Seed     uint64                          `json:"seed"`
	Seconds  float64                         `json:"seconds"`
	EndToEnd map[string]map[string][]float64 `json:"end_to_end"` // workload -> metric -> one value per run
	PerLayer map[string]map[string]float64   `json:"per_layer,omitempty"`
}

func (s suite) child(name string, seed uint64, traced bool) (result, map[string]string, error) {
	t := "0"
	if traced {
		t = "1"
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(s.seconds), "--trace", t,
		"-serve-bin", s.serveBin, "-out", s.outDir}
	if s.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	os.Stderr.Write(stderr.Bytes())
	digests := make(map[string]string)
	sc := bufio.NewScanner(&stderr)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "rlbf-bench:" && f[1] == "digest" {
			digests[f[2]] = f[3]
		}
	}
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, nil, fmt.Errorf("%s: last line of output is not a result: %w", name, err)
	}
	return r, digests, nil
}

func (s suite) run(resultPath string) int {
	var ws []string
	for _, w := range s.spec.Workloads {
		if s.only == "" || w.Name == s.only {
			ws = append(ws, w.Name)
		}
	}
	out := resultsFile{Seed: s.seed, Seconds: s.seconds,
		EndToEnd: make(map[string]map[string][]float64), PerLayer: make(map[string]map[string]float64)}
	bad := 0
	t0 := time.Now()
	for _, w := range ws {
		e2e := make(map[string][]float64)
		var base map[string]string // digests of the run on the base seed
		for i := 0; i < s.repeat; i++ {
			r, dig, err := s.child(w, s.seed+uint64(i), false)
			if err != nil || !r.Correct {
				fmt.Printf("%-17s run %d FAILED (%v)\n", w, i, err)
				bad++
				continue
			}
			if i == 0 {
				base = dig
			}
			for name, v := range r.Metrics {
				e2e[name] = append(e2e[name], v.Value)
			}
		}
		out.EndToEnd[w] = e2e
		for _, m := range s.spec.EndToEnd {
			vs := e2e[m.Name]
			if len(vs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			if s.repeat == 1 {
				fmt.Printf("%-17s %-28s %14.4f %s\n", w, m.Name, vs[0], m.Unit)
			} else {
				fmt.Printf("%-17s %-28s median %12.4f %-4s q1 %12.4f q3 %12.4f spread %5.1f%% of bound %4.1f%% (n=%d)\n",
					w, m.Name, q2, m.Unit, q1, q3, 100*spread(vs), 100*s.spec.bound(w, m), len(vs))
			}
		}
		if !s.traced {
			continue
		}
		r, dig, err := s.child(w, s.seed, true)
		if err != nil || !r.Correct {
			fmt.Printf("%-17s traced run FAILED (%v)\n", w, err)
			bad++
			continue
		}
		for k, v := range dig {
			if b, ok := base[k]; ok && b != v {
				fmt.Printf("%-17s CHECK FAILED: %s is %s in the timed run and %s in the traced run\n", w, k, b, v)
				bad++
			}
		}
		layer := make(map[string]float64)
		for _, m := range s.spec.PerLayer {
			v := r.Metrics[m.Name].Value
			layer[m.Name] = v
			fmt.Printf("%-17s %-28s %14.4f %s\n", w, m.Name, v, m.Unit)
		}
		out.PerLayer[w] = layer
		if w == "serve-backlog" {
			// Where the gap between the client's worst case and the server's
			// own p99 lives: the four candidates side by side.
			fmt.Printf("%-17s attribution: client submit max %.1f ms, daemon's own submit p99 %.2f ms | wire p99 %.2f ms | handler max %.1f ms, self p50 %.3f ms, self max %.1f ms | backfill call p99 %.2f ms | wal sync p99 %.2f ms\n",
				w, layer["serveclient.submit_max_ms"], layer["serve.submit_ms_p99"], layer["serveclient.wire_ms_p99"],
				layer["serve.handler_ms_max"], layer["serve.self_ms_p50"], layer["serve.self_ms_max"],
				layer["backfill.call_ms_p99"], layer["wal.sync_ms_p99"])
		}
	}
	fmt.Printf("%d workloads, %d failed, %.0f s\n", len(ws), bad, time.Since(t0).Seconds())
	if resultPath != "" {
		b, _ := json.MarshalIndent(out, "", " ")
		if err := os.WriteFile(resultPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "rlbf-bench: %v\n", err)
			return 1
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// compareMain applies each end-to-end metric's bound to two result files.
func compareMain(sp *spec, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: rlbf-bench compare old.json new.json")
		return 2
	}
	var old, new resultsFile
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, []*resultsFile{&old, &new}[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rlbf-bench: %s: %v\n", p, err)
			return 2
		}
	}
	rows, regressions := compareResults(sp, old, new)
	for _, r := range rows {
		fmt.Println(r)
	}
	if regressions > 0 {
		return 1
	}
	return 0
}

// compareResults judges every workload x metric pair present on both sides
// by its bound.
func compareResults(sp *spec, old, new resultsFile) (rows []string, regressions int) {
	var names []string
	for w := range new.EndToEnd {
		if _, ok := old.EndToEnd[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	for _, w := range names {
		for _, m := range sp.EndToEnd {
			o, n := old.EndToEnd[w][m.Name], new.EndToEnd[w][m.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			bound := sp.bound(w, m)
			v := verdict(o, n, m.Better, bound)
			if v == "regression" {
				regressions++
			}
			rows = append(rows, fmt.Sprintf("%-17s %-14s %12.4f -> %12.4f %-4s %+6.1f%% worse (bound %.0f%%, spreads %.1f%% and %.1f%%)  %s",
				w, m.Name, median(o), median(n), m.Unit, 100*worsening(median(o), median(n), m.Better), 100*bound, 100*spread(o), 100*spread(n), v))
		}
	}
	return rows, regressions
}
