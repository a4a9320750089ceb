package shard

import (
	"math"
	"testing"

	"repro/internal/backfill"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// strategies is the heuristic matrix the differential pins (the same set the
// kernel differential covers, minus the RL agent which needs a trained
// model): nil, EASY, SJF-ordered EASY and conservative backfilling.
var strategies = []struct {
	name string
	mk   func() backfill.Backfiller
}{
	{"none", func() backfill.Backfiller { return nil }},
	{"EASY", func() backfill.Backfiller { return backfill.NewEASY(backfill.RequestTime{}) }},
	{"EASY-SJF", func() backfill.Backfiller {
		return &backfill.EASY{Est: backfill.RequestTime{}, Order: backfill.SJFOrder}
	}},
	{"conservative", func() backfill.Backfiller { return backfill.NewConservative(backfill.RequestTime{}) }},
}

// moderateLoadTrace returns a workload whose backlog drains regularly, so a
// 512-job overlap spans a drain interval at every window boundary (the
// exactness precondition, see the package comment and DESIGN.md §7).
func moderateLoadTrace(n int) *trace.Trace {
	return trace.ScaleLoad(trace.SyntheticSDSCSP2(n, 1), 0.5)
}

func sequentialResult(t *testing.T, tr *trace.Trace, mk func() backfill.Backfiller) *sim.Result {
	t.Helper()
	res, err := Replay(tr, sim.Config{Policy: sched.FCFS{}, Backfiller: mk()}, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func shardedResult(t *testing.T, tr *trace.Trace, mk func() backfill.Backfiller, cfg Config) *sim.Result {
	t.Helper()
	res, err := ReplayWith(tr, sched.FCFS{}, mk, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// recordsEqual compares two trace-ordered record streams field by field
// (jobs are compared by ID: the two replays may or may not share pointers).
func recordsEqual(a, b []metrics.Record) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	bad := 0
	for i := range a {
		if a[i].Job.ID != b[i].Job.ID || a[i].Start != b[i].Start || a[i].End != b[i].End {
			bad++
		}
	}
	return bad, bad == 0
}

// TestShardDifferential pins the tentpole guarantee, in the style of
// TestKernelDifferential: with sufficient overlap the sharded replay is
// byte-identical to the sequential replay — records AND summary — for every
// heuristic backfiller, on two synthetic archives.
func TestShardDifferential(t *testing.T) {
	cfg := Config{Window: 625, Overlap: 512, MinJobs: 1}
	traces := []*trace.Trace{
		trace.ScaleLoad(trace.SyntheticSDSCSP2(2500, 1), 0.5),
		trace.ScaleLoad(trace.SyntheticHPC2N(2500, 3), 0.5),
	}
	for _, tr := range traces {
		for _, s := range strategies {
			if testing.Short() && s.name == "conservative" && tr.Name == "SDSC-SP2" {
				continue // the profile-based strategy dominates the runtime
			}
			seq := sequentialResult(t, tr, s.mk)
			sh := shardedResult(t, tr, s.mk, cfg)
			if bad, ok := recordsEqual(seq.Records, sh.Records); !ok {
				t.Errorf("%s/%s: %d of %d records differ between sequential and sharded replay",
					tr.Name, s.name, bad, len(seq.Records))
				continue
			}
			if seq.Summary != sh.Summary {
				t.Errorf("%s/%s: summaries differ: sequential %+v, sharded %+v",
					tr.Name, s.name, seq.Summary, sh.Summary)
			}
		}
	}
}

// TestShardDeterministicAcrossWorkers pins that the stitched output is
// byte-identical at any worker count: windows write disjoint index ranges,
// so completion order cannot matter.
func TestShardDeterministicAcrossWorkers(t *testing.T) {
	tr := moderateLoadTrace(2500)
	mk := strategies[1].mk // EASY
	cfg := Config{Window: 400, Overlap: 512, MinJobs: 1}
	var ref *sim.Result
	for _, w := range []int{1, 2, 8} {
		cfg.Workers = w
		res := shardedResult(t, tr, mk, cfg)
		if ref == nil {
			ref = res
			continue
		}
		if bad, ok := recordsEqual(ref.Records, res.Records); !ok {
			t.Fatalf("Workers=%d: %d records differ from Workers=1", w, bad)
		}
		if ref.Summary != res.Summary {
			t.Fatalf("Workers=%d: summary differs from Workers=1", w)
		}
	}
}

// TestShardUndersizedPool pins that windows degrade gracefully on a pool
// smaller than the window count: with one token the 7 windows run strictly
// sequentially through the shared pool, and the output is unchanged.
func TestShardUndersizedPool(t *testing.T) {
	tr := moderateLoadTrace(2500)
	mk := strategies[1].mk // EASY
	cfg := Config{Window: 400, Overlap: 512, MinJobs: 1, Workers: 8}
	want := shardedResult(t, tr, mk, cfg)
	res, err := ReplayWith(tr, sched.FCFS{}, mk, cfg, pool.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if bad, ok := recordsEqual(want.Records, res.Records); !ok {
		t.Fatalf("pool of 1 token: %d records differ", bad)
	}
}

// TestShardWindowShorterThanWarmup: a window narrower than the overlap means
// every replay range spans several neighbouring windows; the stitch must
// still be exact.
func TestShardWindowShorterThanWarmup(t *testing.T) {
	tr := moderateLoadTrace(1200)
	for _, s := range strategies[:3] { // none, EASY, EASY-SJF
		seq := sequentialResult(t, tr, s.mk)
		sh := shardedResult(t, tr, s.mk, Config{Window: 150, Overlap: 400, MinJobs: 1})
		if bad, ok := recordsEqual(seq.Records, sh.Records); !ok {
			t.Errorf("%s: %d records differ with Window=150 < Overlap=400", s.name, bad)
		}
	}
}

// TestShardJobSpanningWindowBoundary: a machine-wide job submitted in window
// 0 keeps window 1's jobs queued long past the boundary. With the overlap
// covering the long job the stitch is exact; with the long job outside the
// warm-up, window 1 must visibly diverge (this pins that the warm-up is what
// carries cross-boundary state, not an accident of the workload).
func TestShardJobSpanningWindowBoundary(t *testing.T) {
	tr := &trace.Trace{Name: "boundary", Procs: 4}
	tr.Jobs = append(tr.Jobs, &trace.Job{ID: 1, Submit: 0, Runtime: 1000, Request: 1000, Procs: 4})
	for i := 2; i <= 8; i++ {
		tr.Jobs = append(tr.Jobs, &trace.Job{ID: i, Submit: int64(i), Runtime: 5, Request: 10, Procs: 1})
	}
	mk := func() backfill.Backfiller { return backfill.NewEASY(backfill.RequestTime{}) }
	seq := sequentialResult(t, tr, mk)

	exact := shardedResult(t, tr, mk, Config{Window: 4, Overlap: 8, MinJobs: 1})
	if bad, ok := recordsEqual(seq.Records, exact.Records); !ok {
		t.Fatalf("overlap covering the spanning job: %d records differ", bad)
	}
	// Window 1's jobs must all have waited for the machine-wide job.
	for _, r := range exact.Records[4:] {
		if r.Start < 1000 {
			t.Fatalf("job %d started at %d, before the spanning job's completion at 1000", r.Job.ID, r.Start)
		}
	}

	short := shardedResult(t, tr, mk, Config{Window: 4, Overlap: 2, MinJobs: 1})
	if _, ok := recordsEqual(seq.Records, short.Records); ok {
		t.Fatal("overlap 2 cannot see the spanning job, yet the stitch matched; warm-up is not being exercised")
	}
}

// TestShardFinalPartialWindow: a trace that does not divide evenly leaves a
// short last window; every job must still be recorded exactly once.
func TestShardFinalPartialWindow(t *testing.T) {
	tr := moderateLoadTrace(1050)
	mk := strategies[1].mk // EASY
	seq := sequentialResult(t, tr, mk)
	sh := shardedResult(t, tr, mk, Config{Window: 500, Overlap: 400, MinJobs: 1})
	if len(sh.Records) != 1050 {
		t.Fatalf("%d records, want 1050", len(sh.Records))
	}
	for i, r := range sh.Records {
		if r.Job == nil {
			t.Fatalf("record %d never filled (job unstitched)", i)
		}
	}
	if bad, ok := recordsEqual(seq.Records, sh.Records); !ok {
		t.Fatalf("partial final window: %d records differ", bad)
	}
}

// TestShardEmptyTrace: a trace with no jobs replays to an empty result on
// every path.
func TestShardEmptyTrace(t *testing.T) {
	tr := &trace.Trace{Name: "empty", Procs: 8}
	for _, cfg := range []Config{{}, {Window: 100, Overlap: 50, MinJobs: 1}} {
		res, err := Replay(tr, sim.Config{Policy: sched.FCFS{}}, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != 0 || res.Summary.Jobs != 0 {
			t.Fatalf("cfg %+v: non-empty result %+v from empty trace", cfg, res.Summary)
		}
	}
}

// TestShardAutoOff pins the activation threshold: sharding only engages at
// MinJobs (DefaultMinJobs when unset), so short tests and eval sequences
// replay exactly as before.
func TestShardAutoOff(t *testing.T) {
	cfg := Config{Window: 100}
	if cfg.Active(DefaultMinJobs - 1) {
		t.Fatal("sharding active below DefaultMinJobs")
	}
	if !cfg.Active(DefaultMinJobs) {
		t.Fatal("sharding inactive at DefaultMinJobs")
	}
	if (Config{}).Active(1 << 20) {
		t.Fatal("zero config must stay disabled at any length")
	}
	cfg = Config{Window: 100, MinJobs: 10}
	if !cfg.Active(10) || cfg.Active(9) {
		t.Fatal("explicit MinJobs threshold not honoured")
	}
}

// noClone hides the Fresh method of a cloneable backfiller, modelling a
// stateful strategy that cannot be duplicated across windows.
type noClone struct{ inner backfill.Backfiller }

func (n noClone) Name() string { return n.inner.Name() }
func (n noClone) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	n.inner.Backfill(st, head, queue)
}

// TestShardNonCloneableFallsBack: a backfiller without Fresh must replay
// sequentially (sharing scratch between concurrent windows would race), and
// the result must equal the cloneable sequential replay.
func TestShardNonCloneableFallsBack(t *testing.T) {
	tr := moderateLoadTrace(1200)
	want := sequentialResult(t, tr, strategies[1].mk)
	res, err := Replay(tr, sim.Config{
		Policy:     sched.FCFS{},
		Backfiller: noClone{inner: backfill.NewEASY(backfill.RequestTime{})},
	}, Config{Window: 200, Overlap: 200, MinJobs: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad, ok := recordsEqual(want.Records, res.Records); !ok {
		t.Fatalf("non-cloneable fallback differs from sequential replay (%d records)", bad)
	}
}

// TestShardProbeFallsBack: probes observe the whole engine timeline, which a
// stitched replay cannot reproduce, so a configured probe forces the
// sequential path (and still returns trace-ordered records).
func TestShardProbeFallsBack(t *testing.T) {
	tr := moderateLoadTrace(1200)
	want := sequentialResult(t, tr, strategies[1].mk)
	probe := &sim.TimelineProbe{}
	res, err := Replay(tr, sim.Config{
		Policy:     sched.FCFS{},
		Backfiller: backfill.NewEASY(backfill.RequestTime{}),
		Probe:      probe,
	}, Config{Window: 200, Overlap: 200, MinJobs: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad, ok := recordsEqual(want.Records, res.Records); !ok {
		t.Fatalf("probe fallback differs from sequential replay (%d records)", bad)
	}
	if len(probe.Times) == 0 {
		t.Fatal("probe saw no samples on the fallback path")
	}
}

// TestShardInsufficientOverlapTolerance documents the graceful-degradation
// contract: on a near-saturated workload a 128-job overlap is NOT enough for
// byte-identity, but the stitched mean bounded slowdown stays within the
// documented 10% tolerance of the sequential value (DESIGN.md §7).
func TestShardInsufficientOverlapTolerance(t *testing.T) {
	tr := trace.ScaleLoad(trace.SyntheticSDSCSP2(2500, 1), 0.9)
	mk := strategies[1].mk // EASY
	seq := sequentialResult(t, tr, mk)
	sh := shardedResult(t, tr, mk, Config{Window: 625, Overlap: 128, MinJobs: 1})
	bad, ok := recordsEqual(seq.Records, sh.Records)
	if ok {
		t.Fatal("overlap 128 unexpectedly exact on the saturated trace; the tolerance case is not being exercised")
	}
	rel := math.Abs(sh.Summary.MeanBSLD-seq.Summary.MeanBSLD) / seq.Summary.MeanBSLD
	if rel > 0.10 {
		t.Fatalf("insufficient overlap drifted %.1f%% (%d bad records): sequential bsld %.3f, sharded %.3f",
			rel*100, bad, seq.Summary.MeanBSLD, sh.Summary.MeanBSLD)
	}
	t.Logf("insufficient overlap: %d/%d records differ, mean bsld drift %.2f%% (tolerance 10%%)",
		bad, len(seq.Records), rel*100)
}
