package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// metricDef names one metric the way BENCHMARK.json does.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is what the benchmark reads from BENCHMARK.json at the root of the
// checkout: the one place that names the workloads and the metrics, with
// their units, directions and bounds. README.md says what each metric means
// on each workload; this program only has to report under those names, and
// set panics on a name the file does not hold.
//
// end_to_end are measured with tracing off and every workload reports every
// one of them. per_layer come from the traced run (or from the daemon's own
// accounting where README.md marks it); a layer a workload does not exercise
// reads 0: it did no work.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// specPath is relative to the root of the checkout, where run.sh starts the
// benchmark.
const specPath = "BENCHMARK.json"

// runners maps each workload of BENCHMARK.json to the code that runs it.
var runners = map[string]func(*runCtx) error{
	"replay-easy":      runReplayEasy,
	"replay-cons":      runReplayCons,
	"train-sdsc":       runTrain,
	"serve-paced":      runServePaced,
	"serve-backlog":    runServeBacklog,
	"serve-replicated": runServeReplicated,
}

// workloadBounds are the bounds `compare` applies where a workload's own
// spread over ten seeds (README.md, "Measured spreads") allows less than the
// metric's bound in BENCHMARK.json. That file holds one bound per metric, and
// on this host every one of them sits at the ceiling of 0.25, which a slow
// minute of the host demands. Each entry here is max(5%, 2 x the largest
// spread among the sets of ten runs that no such minute fell into), rounded
// up to a whole per cent; a set that one did fall into reads "unresolved"
// under these (verdict), not "regression".
var workloadBounds = map[string]map[string]float64{
	"replay-easy":      {"work_per_s": 0.12, "wait_ms": 0.12, "peak_rss_mb": 0.07},
	"replay-cons":      {"work_per_s": 0.07, "wait_ms": 0.07, "peak_rss_mb": 0.05},
	"train-sdsc":       {"work_per_s": 0.14, "wait_ms": 0.14, "peak_rss_mb": 0.17},
	"serve-paced":      {"work_per_s": 0.14, "wait_ms": 0.14, "peak_rss_mb": 0.05},
	"serve-backlog":    {"work_per_s": 0.17, "wait_ms": 0.18, "peak_rss_mb": 0.05},
	"serve-replicated": {"work_per_s": 0.12, "wait_ms": 0.14, "peak_rss_mb": 0.05},
}

// loadSpec reads BENCHMARK.json and checks that it and this program name the
// same workloads.
func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) != len(runners) {
		return nil, fmt.Errorf("%s names %d workloads, the benchmark runs %d", path, len(s.Workloads), len(runners))
	}
	for _, w := range s.Workloads {
		if runners[w.Name] == nil {
			return nil, fmt.Errorf("%s names workload %q, which the benchmark does not run", path, w.Name)
		}
	}
	for w, ms := range workloadBounds {
		for m := range ms {
			if runners[w] == nil || findMetric(s.EndToEnd, m) == nil {
				return nil, fmt.Errorf("workloadBounds holds %s/%s, which %s does not name", w, m, path)
			}
		}
	}
	return &s, nil
}

// bound is the share of the old median by which a metric may worsen on a
// workload before compare calls it a regression.
func (s *spec) bound(workload string, m metricDef) float64 {
	if b, ok := workloadBounds[workload][m.Name]; ok && b < m.Bound {
		return b
	}
	return m.Bound
}

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runCtx is what a workload gets and fills in.
type runCtx struct {
	spec     *spec
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	smoke    bool
	serveBin string
	outDir   string

	attempted, failed int64
	values            map[string]float64
	problems          []string // correctness checks that did not hold
	digests           map[string]string
	notes             []string
}

func newRunCtx(s *spec, workload string, seed uint64, seconds float64, traced, smoke bool, serveBin, outDir string) *runCtx {
	return &runCtx{spec: s, workload: workload, seed: seed, seconds: seconds, traced: traced, smoke: smoke,
		serveBin: serveBin, outDir: outDir,
		values: make(map[string]float64), digests: make(map[string]string)}
}

// dur turns seconds (a flag's or a share of the run's) into a Duration.
func (c *runCtx) dur(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// driveBudget is how long one micro-drive may take: d, or next to nothing
// under -smoke.
func (c *runCtx) driveBudget(d time.Duration) time.Duration {
	if c.smoke {
		return 5 * time.Millisecond
	}
	return d
}

// defs are the metrics this run reports.
func (c *runCtx) defs() []metricDef {
	if c.traced {
		return c.spec.PerLayer
	}
	return c.spec.EndToEnd
}

func (c *runCtx) set(name string, v float64) {
	if findMetric(c.defs(), name) == nil {
		// A workload computes both kinds from shared code; a value of the
		// other kind is simply not part of this run's report.
		if findMetric(c.spec.EndToEnd, name) == nil && findMetric(c.spec.PerLayer, name) == nil {
			panic("benchmark: metric " + name + " is not in " + specPath)
		}
		return
	}
	c.values[name] = v
}

func (c *runCtx) fail(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

func (c *runCtx) note(format string, args ...any) {
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

// digest records a value that must repeat between runs of one workload
// (timed, traced, other worker counts); -all compares them across runs.
func (c *runCtx) digest(key, val string) { c.digests[key] = val }

// scale shrinks a size for -smoke (about 1/50), never below lo.
func (c *runCtx) scale(n, lo int) int {
	if !c.smoke {
		return n
	}
	return max(lo, n/50)
}

// finish turns what the workload recorded into the contract's result. With
// tracing off every end-to-end metric must be present and non-zero; with
// tracing on every per-layer metric is reported, 0 where the layer idled.
func (c *runCtx) finish() result {
	defs := c.defs()
	r := result{Attempted: max(c.attempted, 1), Failed: c.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, m := range defs {
		v, ok := c.values[m.Name]
		if !c.traced && (!ok || v == 0) {
			c.fail("end-to-end metric %s was not measured", m.Name)
		}
		r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	r.Correct = len(c.problems) == 0
	return r
}

func (c *runCtx) report(w *os.File) {
	for _, n := range c.notes {
		fmt.Fprintf(w, "rlbf-bench: %s\n", n)
	}
	keys := make([]string, 0, len(c.digests))
	for k := range c.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "rlbf-bench: digest %s %s\n", k, c.digests[k])
	}
	for _, p := range c.problems {
		fmt.Fprintf(w, "rlbf-bench: CHECK FAILED: %s\n", p)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
