package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/backfill"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

func mkTrace(procs int, jobs ...*trace.Job) *trace.Trace {
	return &trace.Trace{Name: "t", Procs: procs, Jobs: jobs}
}

func job(id int, submit, run, req int64, procs int) *trace.Job {
	return &trace.Job{ID: id, Submit: submit, Runtime: run, Request: req, Procs: procs}
}

func mustRun(t *testing.T, tr *trace.Trace, cfg Config) *Result {
	t.Helper()
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func startOf(t *testing.T, res *Result, id int) int64 {
	t.Helper()
	for _, r := range res.Records {
		if r.Job.ID == id {
			return r.Start
		}
	}
	t.Fatalf("job %d not in records", id)
	return 0
}

func TestSingleJobRunsImmediately(t *testing.T) {
	tr := mkTrace(4, job(1, 5, 100, 100, 4))
	res := mustRun(t, tr, Config{Policy: sched.FCFS{}})
	if got := startOf(t, res, 1); got != 5 {
		t.Fatalf("start = %d, want 5", got)
	}
	if res.Summary.MeanBSLD != 1 {
		t.Fatalf("bsld = %v, want 1", res.Summary.MeanBSLD)
	}
}

func TestBlockedJobWaitsForCompletion(t *testing.T) {
	tr := mkTrace(4,
		job(1, 0, 100, 100, 4),
		job(2, 10, 50, 50, 4),
	)
	res := mustRun(t, tr, Config{Policy: sched.FCFS{}})
	if got := startOf(t, res, 2); got != 100 {
		t.Fatalf("job 2 start = %d, want 100", got)
	}
}

func TestRunRejectsNilPolicy(t *testing.T) {
	if _, err := Run(mkTrace(4), Config{}); err == nil {
		t.Fatal("nil policy accepted")
	}
}

func TestRunRejectsInvalidTrace(t *testing.T) {
	tr := mkTrace(4, job(1, 0, 10, 10, 9)) // bigger than machine
	if _, err := Run(tr, Config{Policy: sched.FCFS{}}); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

// The canonical EASY scenario: a wide head job waits for a running job, a
// short narrow job jumps ahead without delaying the head.
func TestEASYBackfillsShortJob(t *testing.T) {
	tr := mkTrace(10,
		job(1, 0, 100, 100, 8), // running, leaves 2 free
		job(2, 1, 50, 50, 10),  // head: needs the whole machine at t=100
		job(3, 2, 50, 50, 2),   // finishes at ~52 <= 100: backfillable
		job(4, 3, 200, 200, 2), // would run past the shadow and delay head
	)
	res := mustRun(t, tr, Config{Policy: sched.FCFS{}, Backfiller: backfill.NewEASY(backfill.RequestTime{})})
	if got := startOf(t, res, 3); got != 2 {
		t.Fatalf("job 3 (safe backfill) start = %d, want 2", got)
	}
	if got := startOf(t, res, 2); got != 100 {
		t.Fatalf("head job start = %d, want 100 (must not be delayed)", got)
	}
	if got := startOf(t, res, 4); got < 100 {
		t.Fatalf("job 4 started at %d, must not backfill past shadow", got)
	}
}

// Without backfilling, the short job is stuck behind the wide head.
func TestNoBackfillBlocks(t *testing.T) {
	tr := mkTrace(10,
		job(1, 0, 100, 100, 8),
		job(2, 1, 50, 50, 10),
		job(3, 2, 50, 50, 2),
	)
	res := mustRun(t, tr, Config{Policy: sched.FCFS{}})
	if got := startOf(t, res, 3); got <= 100 {
		t.Fatalf("job 3 started at %d without backfilling", got)
	}
}

// Extra-node rule: a long narrow job may backfill if it only consumes
// processors the head does not need at its shadow time.
func TestEASYExtraNodesRule(t *testing.T) {
	tr := mkTrace(10,
		job(1, 0, 100, 100, 6), // running, 4 free
		job(2, 1, 50, 50, 8),   // head: at shadow t=100 there will be 10 free, extra = 2
		job(3, 2, 500, 500, 2), // long but fits in the 2 extra procs
		job(4, 3, 500, 500, 4), // long and too wide: would delay the head
	)
	res := mustRun(t, tr, Config{Policy: sched.FCFS{}, Backfiller: backfill.NewEASY(backfill.RequestTime{})})
	if got := startOf(t, res, 3); got != 2 {
		t.Fatalf("extra-node job start = %d, want 2", got)
	}
	if got := startOf(t, res, 2); got != 100 {
		t.Fatalf("head start = %d, want 100", got)
	}
}

func TestEASYARUsesActualRuntime(t *testing.T) {
	// Job 3 requests 500s but actually runs 40s. With request-time EASY it
	// cannot backfill (500 > shadow); with EASY-AR it can.
	mk := func() *trace.Trace {
		return mkTrace(10,
			job(1, 0, 100, 100, 8),
			job(2, 1, 50, 50, 10),
			job(3, 2, 40, 500, 2),
		)
	}
	rt := mustRun(t, mk(), Config{Policy: sched.FCFS{}, Backfiller: backfill.NewEASY(backfill.RequestTime{})})
	ar := mustRun(t, mk(), Config{Policy: sched.FCFS{}, Backfiller: backfill.NewEASY(backfill.ActualRuntime{})})
	if got := startOf(t, rt, 3); got <= 2 {
		t.Fatalf("RT-EASY backfilled an over-requested job (start %d)", got)
	}
	if got := startOf(t, ar, 3); got != 2 {
		t.Fatalf("AR-EASY start = %d, want 2", got)
	}
}

func TestSJFPolicyReordersQueue(t *testing.T) {
	tr := mkTrace(4,
		job(1, 0, 100, 100, 4),
		job(2, 1, 500, 500, 4), // arrives first, long
		job(3, 2, 10, 10, 4),   // short: SJF runs it before job 2
	)
	res := mustRun(t, tr, Config{Policy: sched.SJF{}})
	if startOf(t, res, 3) >= startOf(t, res, 2) {
		t.Fatal("SJF did not run the short job first")
	}
}

func TestAllJobsRunExactlyOnce(t *testing.T) {
	tr := trace.SyntheticSDSCSP2(300, 11)
	res := mustRun(t, tr, Config{Policy: sched.FCFS{}, Backfiller: backfill.NewEASY(backfill.RequestTime{})})
	if len(res.Records) != 300 {
		t.Fatalf("%d records for 300 jobs", len(res.Records))
	}
	seen := map[int]bool{}
	for _, r := range res.Records {
		if seen[r.Job.ID] {
			t.Fatalf("job %d ran twice", r.Job.ID)
		}
		seen[r.Job.ID] = true
		if r.Start < r.Job.Submit {
			t.Fatalf("job %d started before submission", r.Job.ID)
		}
		if r.End != r.Start+r.Job.Runtime {
			t.Fatalf("job %d end mismatch", r.Job.ID)
		}
	}
}

// capacityRespected reconstructs processor usage over time from the records
// and verifies the machine is never oversubscribed.
func capacityRespected(res *Result, procs int) bool {
	type ev struct {
		t int64
		d int
	}
	var evs []ev
	for _, r := range res.Records {
		evs = append(evs, ev{r.Start, r.Job.Procs}, ev{r.End, -r.Job.Procs})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return evs[a].d < evs[b].d // releases before allocations at ties
	})
	used := 0
	for _, e := range evs {
		used += e.d
		if used > procs || used < 0 {
			return false
		}
	}
	return true
}

func TestCapacityNeverExceeded(t *testing.T) {
	for _, bf := range []backfill.Backfiller{
		nil,
		backfill.NewEASY(backfill.RequestTime{}),
		backfill.NewEASY(backfill.ActualRuntime{}),
		backfill.NewConservative(backfill.RequestTime{}),
	} {
		tr := trace.SyntheticHPC2N(200, 5)
		res := mustRun(t, tr, Config{Policy: sched.FCFS{}, Backfiller: bf})
		if !capacityRespected(res, tr.Procs) {
			name := "none"
			if bf != nil {
				name = bf.Name()
			}
			t.Fatalf("capacity violated with backfiller %s", name)
		}
	}
}

// violationChecker wraps a backfiller and fails the test if a backfill round
// pushes the head job's estimated reservation later (EASY's guarantee when
// estimates are conservative).
type violationChecker struct {
	inner backfill.Backfiller
	est   backfill.Estimator
	t     *testing.T
}

func (v *violationChecker) Name() string { return "check-" + v.inner.Name() }

func (v *violationChecker) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	before := backfill.ComputeReservation(st, head, v.est)
	v.inner.Backfill(st, head, queue)
	after := backfill.ComputeReservation(st, head, v.est)
	if after.Shadow > before.Shadow {
		v.t.Fatalf("EASY delayed head job %d: shadow %d -> %d", head.ID, before.Shadow, after.Shadow)
	}
}

func TestEASYNeverDelaysHeadReservation(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		tr := trace.SyntheticSDSCSP2(400, seed)
		est := backfill.RequestTime{}
		cfg := Config{
			Policy:     sched.FCFS{},
			Backfiller: &violationChecker{inner: backfill.NewEASY(est), est: est, t: t},
		}
		mustRun(t, tr, cfg)
	}
}

func TestEASYSJFOrderNeverDelaysHeadEither(t *testing.T) {
	tr := trace.SyntheticHPC2N(300, 9)
	est := backfill.RequestTime{}
	easy := &backfill.EASY{Est: est, Order: backfill.SJFOrder}
	cfg := Config{Policy: sched.FCFS{}, Backfiller: &violationChecker{inner: easy, est: est, t: t}}
	mustRun(t, tr, cfg)
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		tr := trace.SyntheticSDSCSP2(250, 21)
		return mustRun(t, tr, Config{Policy: sched.WFP3{}, Backfiller: backfill.NewEASY(backfill.RequestTime{})})
	}
	a, b := run(), run()
	if len(a.Records) != len(b.Records) {
		t.Fatal("record counts differ")
	}
	for i := range a.Records {
		if a.Records[i].Job.ID != b.Records[i].Job.ID || a.Records[i].Start != b.Records[i].Start {
			t.Fatalf("record %d differs between identical runs", i)
		}
	}
}

func TestBackfillingImprovesUtilization(t *testing.T) {
	tr := trace.SyntheticSDSCSP2(500, 33)
	plain := mustRun(t, tr.Clone(), Config{Policy: sched.FCFS{}})
	easy := mustRun(t, tr.Clone(), Config{Policy: sched.FCFS{}, Backfiller: backfill.NewEASY(backfill.RequestTime{})})
	if easy.Summary.MeanBSLD > plain.Summary.MeanBSLD {
		t.Fatalf("EASY worsened bsld on a loaded trace: %.2f > %.2f",
			easy.Summary.MeanBSLD, plain.Summary.MeanBSLD)
	}
}

func TestConservativeBackfills(t *testing.T) {
	tr := mkTrace(10,
		job(1, 0, 100, 100, 8),
		job(2, 1, 50, 50, 10),
		job(3, 2, 50, 50, 2),
	)
	res := mustRun(t, tr, Config{Policy: sched.FCFS{}, Backfiller: backfill.NewConservative(backfill.RequestTime{})})
	if got := startOf(t, res, 3); got != 2 {
		t.Fatalf("conservative did not backfill safe job (start %d)", got)
	}
	if got := startOf(t, res, 2); got != 100 {
		t.Fatalf("conservative delayed head to %d", got)
	}
}

// Property: for random small traces, every scheduler/backfiller combination
// completes all jobs without capacity violations and with starts >= submits.
func TestScheduleInvariantsQuick(t *testing.T) {
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed))
		n := r.Intn(60) + 5
		procs := []int{8, 32, 100}[r.Intn(3)]
		tr := &trace.Trace{Name: "q", Procs: procs}
		var submit int64
		for i := 0; i < n; i++ {
			submit += r.Int63n(200)
			run := r.Int63n(400) + 1
			tr.Jobs = append(tr.Jobs, job(i+1, submit, run, run+r.Int63n(400), r.Intn(procs)+1))
		}
		for _, p := range sched.All() {
			for _, bf := range []backfill.Backfiller{nil, backfill.NewEASY(backfill.RequestTime{})} {
				res, err := Run(tr.Clone(), Config{Policy: p, Backfiller: bf})
				if err != nil {
					return false
				}
				if len(res.Records) != n {
					return false
				}
				if !capacityRespected(res, procs) {
					return false
				}
				for _, rec := range res.Records {
					if rec.Start < rec.Job.Submit {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Step must be an exact decomposition of RunToCompletion.
func TestStepwiseMatchesRunToCompletion(t *testing.T) {
	tr := trace.SyntheticSDSCSP2(200, 3)
	whole := mustRun(t, tr.Clone(), Config{Policy: sched.SJF{}, Backfiller: backfill.NewEASY(backfill.RequestTime{})})

	e, err := NewEngine(tr.Clone(), Config{Policy: sched.SJF{}, Backfiller: backfill.NewEASY(backfill.RequestTime{})})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for e.Step() {
		steps++
	}
	if steps == 0 {
		t.Fatal("Step never advanced")
	}
	if len(e.Records()) != len(whole.Records) {
		t.Fatalf("stepwise records %d vs %d", len(e.Records()), len(whole.Records))
	}
	for i, w := range whole.Records {
		g := e.Records()[i]
		if g.Job.ID != w.Job.ID || g.Start != w.Start || g.End != w.End {
			t.Fatalf("record %d differs between stepwise and whole-run replay", i)
		}
	}
}

// TestRunningStaysSortedByID checks that the running set a snapshot hands
// out is sorted by job ID after every Step, whatever order the running heap
// holds it in.
func TestRunningStaysSortedByID(t *testing.T) {
	tr := trace.SyntheticHPC2N(250, 17)
	e, err := NewEngine(tr, Config{Policy: sched.FCFS{}, Backfiller: backfill.NewEASY(backfill.RequestTime{})})
	if err != nil {
		t.Fatal(err)
	}
	for e.Step() {
		rs := e.Snapshot().Running
		for i := 1; i < len(rs); i++ {
			if rs[i-1].Job.ID >= rs[i].Job.ID {
				t.Fatalf("running set not ID-sorted at t=%d", e.Now())
			}
		}
	}
}

// runningModel is what runs, kept from the records alone: a job runs from
// the step that started it until the first step at or after its end.
type runningModel struct {
	live map[int]metrics.Record
	seen int // records folded in so far
}

// check advances the model past one Step and compares the engine with it:
// Running is exactly the started, unfinished jobs with their start times,
// the free resources are the machine less their sums, and the snapshot's
// running set is sorted by ID (which also rules out a job held twice).
func (m *runningModel) check(t *testing.T, label string, e *Engine) {
	t.Helper()
	if m.live == nil {
		m.live = map[int]metrics.Record{}
	}
	for id, r := range m.live {
		if r.End <= e.Now() {
			delete(m.live, id)
		}
	}
	for _, r := range e.Records()[m.seen:] {
		m.live[r.Job.ID] = r
	}
	m.seen = len(e.Records())
	rs := e.Running()
	if len(rs) != len(m.live) {
		t.Fatalf("%s t=%d: %d running, want %d", label, e.Now(), len(rs), len(m.live))
	}
	procs, mem := 0, 0
	for _, r := range rs {
		if want, ok := m.live[r.Job.ID]; !ok || want.Job != r.Job || want.Start != r.Start {
			t.Fatalf("%s t=%d: job %d running from %d, model has %v", label, e.Now(), r.Job.ID, r.Start, want)
		}
		procs += r.Job.Procs
		if e.TotalMem() > 0 {
			mem += r.Job.Mem
		}
	}
	if e.FreeProcs() != e.TotalProcs()-procs || e.FreeMem() != e.TotalMem()-mem {
		t.Fatalf("%s t=%d: free %d procs/%d mem, want %d/%d", label, e.Now(),
			e.FreeProcs(), e.FreeMem(), e.TotalProcs()-procs, e.TotalMem()-mem)
	}
	snap := e.Snapshot().Running
	if len(snap) != len(rs) {
		t.Fatalf("%s t=%d: snapshot holds %d running, engine %d", label, e.Now(), len(snap), len(rs))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Job.ID >= snap[i].Job.ID {
			t.Fatalf("%s t=%d: snapshot running set not ID-sorted", label, e.Now())
		}
	}
}

// TestRunningIsStartedLessFinished checks the running heap at every Step
// against the records: under EASY, under conservative backfilling, under an
// aging scenario whose Wake ticks land between events, and on a live engine
// that cancels jobs as it goes.
func TestRunningIsStartedLessFinished(t *testing.T) {
	easy := func(scn sched.Scenario) backfill.Backfiller {
		return &backfill.EASY{Est: backfill.RequestTime{}, Scn: scn}
	}
	aging := sched.Scenario{Priorities: true, StarvationBound: 2}
	enriched := mustEnrich(t, trace.SyntheticSDSCSP2(300, 7),
		trace.EnrichSpec{MemDist: trace.MemDistProp, PriorityTiers: 3, Seed: 11})
	memless := enriched.Clone() // jobs that ask for memory on a machine without it
	memless.Mem = 0
	for _, c := range []struct {
		name string
		tr   *trace.Trace
		cfg  Config
	}{
		{"easy", trace.SyntheticHPC2N(250, 17), Config{Policy: sched.FCFS{}, Backfiller: easy(sched.Scenario{})}},
		{"easy-memless", memless, Config{Policy: sched.FCFS{}, Backfiller: easy(sched.Scenario{})}},
		{"conservative", enriched, Config{Policy: sched.WFP3{}, Backfiller: backfill.NewConservative(backfill.RequestTime{})}},
		{"aging", enriched, Config{Policy: sched.FCFS{}, Scenario: aging, Backfiller: easy(aging)}},
	} {
		e, err := NewEngine(c.tr.Clone(), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var m runningModel
		wakes := false
		for e.Step() {
			m.check(t, c.name, e)
			wakes = wakes || e.events.Len() > 0
		}
		if len(e.Records()) != c.tr.Len() || len(e.Running()) != 0 {
			t.Fatalf("%s: %d records of %d, %d still running", c.name, len(e.Records()), c.tr.Len(), len(e.Running()))
		}
		if wakes != c.cfg.Scenario.Aging() {
			t.Fatalf("%s: wake ticks queued = %v", c.name, wakes)
		}
	}

	tr := liveTrace(5, 300, 16)
	e, err := NewLiveEngine(tr.Name, tr.Procs, 0, Config{Policy: sched.FCFS{}, Backfiller: easy(sched.Scenario{})})
	if err != nil {
		t.Fatal(err)
	}
	var m runningModel
	canceled := 0
	for i, j := range tr.Jobs {
		if j.Submit > 0 {
			for t0, ok := e.NextEventTime(); ok && t0 < j.Submit; t0, ok = e.NextEventTime() {
				e.Step()
				m.check(t, "live", e)
			}
		}
		if err := e.Inject(j.Clone()); err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 { // cancel a job that is queued now, or else still pending
			var q []*trace.Job
			if q = e.AppendQueued(q); len(q) == 0 {
				q = e.AppendPending(q)
			}
			if e.Cancel(q[len(q)-1].ID) {
				canceled++
			}
		}
	}
	for e.Step() {
		m.check(t, "live", e)
	}
	if canceled == 0 || len(e.Records()) != tr.Len()-canceled {
		t.Fatalf("live: %d records of %d jobs with %d canceled", len(e.Records()), tr.Len(), canceled)
	}
}

// A job that does not fit the free machine is a backfiller bug: StartJob
// panics rather than overcommit.
func TestStartJobPanicsWhenJobDoesNotFit(t *testing.T) {
	for _, mem := range []int{0, 10} {
		tr := mkTrace(4, job(1, 0, 100, 100, 3), job(2, 0, 100, 100, 2))
		tr.Mem = mem
		if mem > 0 {
			tr.Jobs[0].Procs, tr.Jobs[0].Mem = 1, 8
			tr.Jobs[1].Mem = 5
		}
		e, err := NewEngine(tr, Config{Policy: sched.FCFS{}})
		if err != nil {
			t.Fatal(err)
		}
		e.Step() // job 1 starts; job 2 is left waiting
		if e.QueueLen() != 1 {
			t.Fatalf("mem %d: %d queued, want 1", mem, e.QueueLen())
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("mem %d: starting job 2 did not panic", mem)
				}
			}()
			e.StartJob(tr.Jobs[1])
		}()
	}
}

func TestNoisyEstimatorIsConsistentPerJob(t *testing.T) {
	est := backfill.Noisy{Level: 0.4, Seed: 7}
	j := job(42, 0, 1000, 2000, 4)
	a, b := est.Estimate(j), est.Estimate(j)
	if a != b {
		t.Fatalf("noisy estimate not stable: %d vs %d", a, b)
	}
	if a < 1000 || a > 1400 {
		t.Fatalf("noisy estimate %d outside [AR, AR*1.4]", a)
	}
}

func TestJobKilledAtRequestLimit(t *testing.T) {
	// Actual runtime 100 but request 40: the scheduler kills it at t=40 and
	// the next job starts then.
	tr := mkTrace(4,
		&trace.Job{ID: 1, Submit: 0, Runtime: 100, Request: 40, Procs: 4},
		job(2, 5, 10, 10, 4),
	)
	res := mustRun(t, tr, Config{Policy: sched.FCFS{}})
	if got := startOf(t, res, 2); got != 40 {
		t.Fatalf("job 2 start = %d, want 40 (after the kill)", got)
	}
	for _, r := range res.Records {
		if r.Job.ID == 1 {
			if !r.Killed() || r.RunSeconds() != 40 {
				t.Fatalf("job 1 not killed correctly: run %d killed=%v", r.RunSeconds(), r.Killed())
			}
		}
	}
}

// Arrivals are fed lazily from the submit-sorted trace and completions come
// off the running heap, so without an aging scenario the event queue stays
// empty, instead of starting at one event per trace job.
func TestLazyArrivalsKeepEventHeapSmall(t *testing.T) {
	tr := trace.SyntheticSDSCSP2(500, 5)
	e, err := NewEngine(tr.Clone(), Config{Policy: sched.FCFS{}, Backfiller: backfill.NewEASY(backfill.RequestTime{})})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.events.Len(); got != 0 {
		t.Fatalf("fresh engine queued %d events, want 0 (lazy arrivals)", got)
	}
	for e.Step() {
		if got := e.events.Len(); got != 0 {
			t.Fatalf("at t=%d the event queue holds %d events, want 0", e.Now(), got)
		}
	}
	if len(e.Records()) != tr.Len() {
		t.Fatalf("completed %d jobs, want %d", len(e.Records()), tr.Len())
	}
}
