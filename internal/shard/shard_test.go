package shard

import (
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

// moderateLoadTrace returns a workload whose backlog drains regularly, so
// drain-aware flanks keep most proposed cuts (see the package comment and
// DESIGN.md §7).
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
	requireWindows(t, tr, cfg.Window)
	res, err := ReplayWith(tr, sched.FCFS{}, mk, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireWindows fails the test unless cutting tr every window jobs keeps
// at least two windows: with one, the sharded replay is the sequential one
// and a differential compares the sequential replay with itself.
func requireWindows(t *testing.T, tr *trace.Trace, window int) {
	t.Helper()
	if _, flanks := autoFlanks(tr, window); len(flanks) < 2 {
		t.Fatalf("%s (%d jobs) at Window %d keeps %d window; the geometry tests nothing",
			tr.Name, tr.Len(), window, len(flanks))
	}
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
// TestKernelDifferential: with drain-aware flanks the sharded replay is
// byte-identical to the sequential replay — records AND summary — for every
// heuristic backfiller, on two synthetic archives. Every row keeps at least
// two windows.
func TestShardDifferential(t *testing.T) {
	rows := []struct {
		tr     *trace.Trace
		window int
	}{
		{trace.ScaleLoad(trace.SyntheticSDSCSP2(2500, 1), 0.5), 625},
		{trace.ScaleLoad(trace.SyntheticHPC2N(2500, 1), 0.5), 625},
		{trace.ScaleLoad(trace.SyntheticHPC2N(2500, 1), 0.3), 250},
	}
	for _, row := range rows {
		tr, cfg := row.tr, Config{Window: row.window, MinJobs: 1}
		for _, s := range strategies {
			if testing.Short() && s.name == "conservative" && tr.Name == "SDSC-SP2" {
				continue // the profile-based strategy dominates the runtime
			}
			seq := sequentialResult(t, tr, s.mk)
			sh := shardedResult(t, tr, s.mk, cfg)
			if bad, ok := recordsEqual(seq.Records, sh.Records); !ok {
				t.Errorf("%s/W%d/%s: %d of %d records differ between sequential and sharded replay",
					tr.Name, row.window, s.name, bad, len(seq.Records))
				continue
			}
			if seq.Summary != sh.Summary {
				t.Errorf("%s/W%d/%s: summaries differ: sequential %+v, sharded %+v",
					tr.Name, row.window, s.name, seq.Summary, sh.Summary)
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
	cfg := Config{Window: 400, MinJobs: 1}
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
// smaller than the window count: with one token the 6 kept windows run
// strictly sequentially through the shared pool, and the output is
// unchanged.
func TestShardUndersizedPool(t *testing.T) {
	tr := moderateLoadTrace(2500)
	mk := strategies[1].mk // EASY
	cfg := Config{Window: 400, MinJobs: 1, Workers: 8}
	want := shardedResult(t, tr, mk, cfg)
	res, err := ReplayWith(tr, sched.FCFS{}, mk, cfg, pool.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if bad, ok := recordsEqual(want.Records, res.Records); !ok {
		t.Fatalf("pool of 1 token: %d records differ", bad)
	}
}

// TestShardWindowShorterThanWarmup: with windows narrow enough that drains
// are rarely in reach, a cut whose warm-up would reach past the previous kept
// cut merges into the window before it, so no warm-up spans more than Window
// jobs. The stitch must still be exact.
func TestShardWindowShorterThanWarmup(t *testing.T) {
	tr := moderateLoadTrace(1200)
	const window = 150
	cuts, flanks := autoFlanks(tr, window)
	if len(cuts)-1 >= (tr.Len()+window-1)/window {
		t.Fatalf("cuts %v: expected narrow windows to merge", cuts)
	}
	for w, fl := range flanks {
		if warm := cuts[w] - fl.lo; warm > window {
			t.Errorf("window %d: warm-up of %d jobs exceeds Window %d", w, warm, window)
		}
	}
	for _, s := range strategies[:3] { // none, EASY, EASY-SJF
		seq := sequentialResult(t, tr, s.mk)
		sh := shardedResult(t, tr, s.mk, Config{Window: window, MinJobs: 1})
		if bad, ok := recordsEqual(seq.Records, sh.Records); !ok {
			t.Errorf("%s: %d records differ with Window=%d", s.name, bad, window)
		}
	}
}

// TestShardJobSpanningWindowBoundary: a machine-wide job submitted in window
// 0 keeps window 1's jobs queued long past the boundary. The trace drains
// just before the spanning job and again after its backlog, so the cut at 4
// is kept and window 1's warm-up starts at the drain before the spanning
// job. The stitch is exact, and window 1 replayed from a cold start at its
// cut visibly diverges: the warm-up is what carries cross-boundary state,
// not an accident of the workload.
func TestShardJobSpanningWindowBoundary(t *testing.T) {
	tr := &trace.Trace{Name: "boundary", Procs: 4}
	job := func(submit, runtime int64, procs int) {
		tr.Jobs = append(tr.Jobs, &trace.Job{ID: len(tr.Jobs) + 1, Submit: submit,
			Runtime: runtime, Request: 2 * runtime, Procs: procs})
	}
	job(0, 5, 1)
	job(1, 5, 1)
	job(10, 1000, 4) // index 2: the spanning job, arriving at a drain
	for s := int64(11); s <= 15; s++ {
		job(s, 5, 1) // indices 3..7: queued behind it
	}
	job(2000, 5, 1) // index 8: a drain after the backlog
	job(2001, 5, 1)
	const spanning, spanEnd = 2, 1010
	mk := func() backfill.Backfiller { return backfill.NewEASY(backfill.RequestTime{}) }
	cfg := Config{Window: 4, MinJobs: 1}
	cuts, flanks := autoFlanks(tr, cfg.Window)
	if len(flanks) < 2 || cuts[1] != 4 {
		t.Fatalf("cuts %v: the cut at 4 should be kept", cuts)
	}
	if flanks[1].lo > spanning {
		t.Fatalf("window 1's warm-up starts at %d, after the spanning job at %d", flanks[1].lo, spanning)
	}

	seq := sequentialResult(t, tr, mk)
	sh := shardedResult(t, tr, mk, cfg)
	if bad, ok := recordsEqual(seq.Records, sh.Records); !ok {
		t.Fatalf("warm-up covering the spanning job: %d records differ", bad)
	}
	// Window 1's jobs must all have waited for the machine-wide job.
	for _, r := range sh.Records[cuts[1]:cuts[2]] {
		if r.Start < spanEnd {
			t.Fatalf("job %d started at %d, before the spanning job's completion at %d", r.Job.ID, r.Start, spanEnd)
		}
	}

	cold := make([]metrics.Record, tr.Len())
	if err := replayWindow(tr, sim.Config{Policy: sched.FCFS{}, Backfiller: mk()}, cuts[1], cuts[2],
		flank{lo: cuts[1], hi: flanks[1].hi}, jobIndex(tr), cold); err != nil {
		t.Fatal(err)
	}
	if _, ok := recordsEqual(seq.Records[cuts[1]:cuts[2]], cold[cuts[1]:cuts[2]]); ok {
		t.Fatal("window 1 without its warm-up matched the sequential replay; warm-up is not being exercised")
	}
}

// TestShardFinalPartialWindow: a trace that does not divide evenly leaves a
// short last window; every job must still be recorded exactly once.
func TestShardFinalPartialWindow(t *testing.T) {
	tr := moderateLoadTrace(1050)
	mk := strategies[1].mk // EASY
	seq := sequentialResult(t, tr, mk)
	sh := shardedResult(t, tr, mk, Config{Window: 500, MinJobs: 1})
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
	for _, cfg := range []Config{{}, {Window: 100, MinJobs: 1}} {
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
	if cfg.active(DefaultMinJobs - 1) {
		t.Fatal("sharding active below DefaultMinJobs")
	}
	if !cfg.active(DefaultMinJobs) {
		t.Fatal("sharding inactive at DefaultMinJobs")
	}
	if (Config{}).active(1 << 20) {
		t.Fatal("zero config must stay disabled at any length")
	}
	cfg = Config{Window: 100, MinJobs: 10}
	if !cfg.active(10) || cfg.active(9) {
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
	}, Config{Window: 200, MinJobs: 1}, nil)
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
	}, Config{Window: 200, MinJobs: 1}, nil)
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
