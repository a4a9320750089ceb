package backfill

import (
	"slices"
	"testing"

	"repro/internal/trace"
)

// memState is an in-memory backfill.State for unit tests. Its journal stays
// closed unless a test opens it.
type memState struct {
	now     int64
	free    int
	total   int
	running []Running
	started []*trace.Job
	journal Journal
}

func (m *memState) Now() int64         { return m.now }
func (m *memState) FreeProcs() int     { return m.free }
func (m *memState) TotalProcs() int    { return m.total }
func (m *memState) Running() []Running { return m.running }
func (m *memState) Journal() *Journal  { return &m.journal }
func (m *memState) StartJob(j *trace.Job) {
	if j.Procs > m.free {
		panic("memState: job does not fit")
	}
	m.free -= j.Procs
	m.started = append(m.started, j)
	m.running = append(m.running, Running{Job: j, Start: m.now})
	m.journal.Record(Started, j, m.now)
}

// setRunning replaces the running set in place, journaling the difference:
// a finish for every job that leaves, a start for every job that joins.
// next must not share storage with the running set.
func (m *memState) setRunning(next []Running) {
	for _, r := range m.running {
		if !slices.Contains(next, r) {
			m.journal.Record(Finished, r.Job, m.now)
		}
	}
	for _, r := range next {
		if !slices.Contains(m.running, r) {
			m.journal.Record(Started, r.Job, r.Start)
		}
	}
	m.running = append(m.running[:0], next...)
}

func job(id int, submit, run, req int64, procs int) *trace.Job {
	return &trace.Job{ID: id, Submit: submit, Runtime: run, Request: req, Procs: procs}
}

func TestComputeReservationImmediateFit(t *testing.T) {
	st := &memState{now: 50, free: 8, total: 8}
	head := job(1, 0, 10, 10, 4)
	res := ComputeReservation(st, head, RequestTime{})
	if res.Shadow != 50 || res.Extra != 4 {
		t.Fatalf("reservation %+v, want shadow 50 extra 4", res)
	}
}

func TestComputeReservationWaitsForRunning(t *testing.T) {
	st := &memState{now: 10, free: 2, total: 10, running: []Running{
		{Job: job(1, 0, 100, 120, 4), Start: 0}, // est end 120
		{Job: job(2, 0, 100, 60, 4), Start: 5},  // est end 65
	}}
	head := job(3, 10, 50, 50, 8)
	res := ComputeReservation(st, head, RequestTime{})
	// free 2 + job2's 4 at t=65 = 6 < 8; + job1's 4 at t=120 = 10 >= 8
	if res.Shadow != 120 {
		t.Fatalf("shadow = %d, want 120", res.Shadow)
	}
	if res.Extra != 2 {
		t.Fatalf("extra = %d, want 2", res.Extra)
	}
}

func TestComputeReservationEstimatorMatters(t *testing.T) {
	st := &memState{now: 0, free: 0, total: 8, running: []Running{
		{Job: job(1, 0, 30, 100, 8), Start: 0}, // actual 30, requested 100
	}}
	head := job(2, 0, 10, 10, 8)
	rt := ComputeReservation(st, head, RequestTime{})
	ar := ComputeReservation(st, head, ActualRuntime{})
	if rt.Shadow != 100 || ar.Shadow != 30 {
		t.Fatalf("shadows rt=%d ar=%d, want 100/30 (Figure 2's trade-off)", rt.Shadow, ar.Shadow)
	}
}

func TestComputeReservationOverdueJob(t *testing.T) {
	// The running job's estimate already expired: shadow clamps to now.
	st := &memState{now: 500, free: 0, total: 8, running: []Running{
		{Job: job(1, 0, 600, 100, 8), Start: 0}, // est end 100 < now
	}}
	head := job(2, 400, 10, 10, 8)
	res := ComputeReservation(st, head, RequestTime{})
	if res.Shadow != 500 {
		t.Fatalf("shadow = %d, want clamped to now=500", res.Shadow)
	}
}

func TestEASYBackfillOrderPolicyVsSJF(t *testing.T) {
	mk := func() *memState {
		return &memState{now: 0, free: 3, total: 10, running: []Running{
			{Job: job(1, 0, 100, 100, 7), Start: 0},
		}}
	}
	head := job(2, 0, 50, 50, 10)
	// Queue order (policy): long-ish first. Both fit in free=3 and end
	// before shadow 100; with only 3 free procs, only one can start.
	q := func() []*trace.Job {
		return []*trace.Job{job(3, 1, 90, 90, 3), job(4, 2, 10, 10, 3)}
	}

	pol := NewEASY(RequestTime{})
	stP := mk()
	pol.Backfill(stP, head, q())
	if len(stP.started) != 1 || stP.started[0].ID != 3 {
		t.Fatalf("policy order started %v, want job 3 first", ids(stP.started))
	}

	sjf := &EASY{Est: RequestTime{}, Order: SJFOrder}
	stS := mk()
	sjf.Backfill(stS, head, q())
	if len(stS.started) != 1 || stS.started[0].ID != 4 {
		t.Fatalf("SJF order started %v, want job 4 first", ids(stS.started))
	}
}

func ids(js []*trace.Job) []int {
	out := make([]int, len(js))
	for i, j := range js {
		out[i] = j.ID
	}
	return out
}

func TestEASYConsumesExtraOnlyOnce(t *testing.T) {
	// extra = 2; two long 2-proc jobs want to backfill; only the first may
	// take the extra processors, otherwise the head is delayed.
	st := &memState{now: 0, free: 4, total: 10, running: []Running{
		{Job: job(1, 0, 100, 100, 6), Start: 0},
	}}
	head := job(2, 0, 50, 50, 8) // shadow 100, extra (4+6)-8 = 2
	long1 := job(3, 1, 500, 500, 2)
	long2 := job(4, 2, 500, 500, 2)
	NewEASY(RequestTime{}).Backfill(st, head, []*trace.Job{long1, long2})
	if len(st.started) != 1 || st.started[0].ID != 3 {
		t.Fatalf("started %v, want only job 3 (extra budget exhausted)", ids(st.started))
	}
}

func TestEASYStopsWhenMachineFull(t *testing.T) {
	st := &memState{now: 0, free: 2, total: 10, running: []Running{
		{Job: job(1, 0, 100, 100, 8), Start: 0},
	}}
	head := job(2, 0, 50, 50, 10)
	short1 := job(3, 1, 10, 10, 2)
	short2 := job(4, 2, 10, 10, 2)
	NewEASY(RequestTime{}).Backfill(st, head, []*trace.Job{short1, short2})
	if len(st.started) != 1 {
		t.Fatalf("started %d jobs with only 2 free procs", len(st.started))
	}
}

// TestEASYResumeRecomputesExtraAfterStarts pins the one way a round that
// started jobs could mislead the next: job 5 ends exactly at the shadow that
// job 1 sets, so it consumes none of the in-round Extra, but its ID sorts
// after job 1's and a fresh reservation counts it as still running at the
// shadow — Extra 0, not 2. An arrival that only the in-round Extra admits
// must not start.
func TestEASYResumeRecomputesExtraAfterStarts(t *testing.T) {
	st := &memState{now: 0, free: 4, total: 10, running: []Running{
		{Job: job(1, 0, 100, 100, 6), Start: 0},
	}}
	st.journal.Open()
	head := job(2, 0, 50, 50, 8)   // shadow 100, extra (4+6)-8 = 2
	wide := job(3, 0, 500, 500, 3) // ends past the shadow, wider than the extra
	atShadow := job(5, 0, 100, 100, 2)
	e := NewEASY(RequestTime{})
	e.Backfill(st, head, []*trace.Job{wide, atShadow})
	if !slices.Equal(ids(st.started), []int{5}) {
		t.Fatalf("first round started %v, want [5]", ids(st.started))
	}
	if res := ComputeReservation(st, head, RequestTime{}); res != (Reservation{Shadow: 100, Extra: 0}) {
		t.Fatalf("fresh reservation %+v, want shadow 100 and no extra", res)
	}

	long := job(6, 1, 500, 500, 2) // fits the 2 free procs, ends past the shadow
	st.now = 1
	st.journal.Record(Arrived, long, 1)
	e.Backfill(st, head, []*trace.Job{wide, long})
	if !slices.Equal(ids(st.started), []int{5}) {
		t.Fatalf("second round started %v: the arrival used the previous round's extra", ids(st.started))
	}
}

func TestEstimatorNames(t *testing.T) {
	if (RequestTime{}).Name() != "RT" || (ActualRuntime{}).Name() != "AR" {
		t.Fatal("estimator names wrong")
	}
	if (Noisy{Level: 0.2}).Name() != "AR+20%" {
		t.Fatalf("noisy name = %q", Noisy{Level: 0.2}.Name())
	}
}

func TestNoisyEstimatorBounds(t *testing.T) {
	j := job(7, 0, 1000, 9999, 1)
	for _, lvl := range []float64{0.05, 0.1, 0.2, 0.4, 1.0} {
		est := Noisy{Level: lvl, Seed: 42}
		v := est.Estimate(j)
		if v < 1000 || float64(v) > 1000*(1+lvl)+1 {
			t.Fatalf("level %v: estimate %d outside [1000, %v]", lvl, v, 1000*(1+lvl))
		}
	}
	// level 0 equals the actual runtime
	if (Noisy{Level: 0}).Estimate(j) != 1000 {
		t.Fatal("zero-noise estimate != AR")
	}
}

func TestNoisySeedChangesDraw(t *testing.T) {
	j := job(7, 0, 1000, 9999, 1)
	a := Noisy{Level: 1.0, Seed: 1}.Estimate(j)
	b := Noisy{Level: 1.0, Seed: 2}.Estimate(j)
	if a == b {
		t.Fatal("different seeds produced identical noise (suspicious)")
	}
}

func TestEstimatorsFloorAtOne(t *testing.T) {
	z := &trace.Job{ID: 1, Runtime: 0, Request: 0, Procs: 1}
	if (RequestTime{}).Estimate(z) < 1 || (ActualRuntime{}).Estimate(z) < 1 {
		t.Fatal("estimates must be >= 1")
	}
}

func TestConservativeDoesNotDelayAnyReservation(t *testing.T) {
	// Head waits for t=100 (8 procs). A second queued job (4 procs, 50s)
	// reserves right after. A candidate that would delay the *second* job's
	// reservation must be rejected even if the head is unaffected.
	st := &memState{now: 0, free: 2, total: 10, running: []Running{
		{Job: job(1, 0, 100, 100, 8), Start: 0},
	}}
	head := job(2, 0, 200, 200, 10)
	second := job(3, 1, 50, 50, 2) // could start now; it is a candidate too
	c := NewConservative(RequestTime{})
	c.Backfill(st, head, []*trace.Job{second})
	// job 3 fits now and delays nobody: it must start
	if len(st.started) != 1 || st.started[0].ID != 3 {
		t.Fatalf("conservative refused a harmless backfill: %v", ids(st.started))
	}
}

func TestConservativeNeverDelaysHead(t *testing.T) {
	st := &memState{now: 0, free: 2, total: 10, running: []Running{
		{Job: job(1, 0, 100, 100, 8), Start: 0},
	}}
	head := job(2, 0, 50, 50, 10)
	long := job(3, 1, 500, 500, 2) // runs way past the head's reservation at 100
	NewConservative(RequestTime{}).Backfill(st, head, []*trace.Job{long})
	if len(st.started) != 0 {
		t.Fatalf("conservative delayed the head by starting %v", ids(st.started))
	}
}

func TestConservativeProtectsNonHeadReservations(t *testing.T) {
	// Machine 10. Running: 8 procs until t=100. The head (8 procs) is
	// reserved at [100,150) and mid (all 10 procs) at [150,200). cand (2
	// procs, 200s) fits the 2 free procs and the head's 2 spare ones, but
	// starting it now would push mid from 150 to 200. EASY, which protects
	// only the head, starts it; conservative must not.
	mk := func() (*memState, *trace.Job, []*trace.Job) {
		st := &memState{now: 0, free: 2, total: 10, running: []Running{
			{Job: job(1, 0, 100, 100, 8), Start: 0},
		}}
		return st, job(2, 0, 50, 50, 8), []*trace.Job{job(3, 1, 50, 50, 10), job(4, 2, 200, 200, 2)}
	}
	st, head, queue := mk()
	NewEASY(RequestTime{}).Backfill(st, head, queue)
	if !slices.Equal(ids(st.started), []int{4}) {
		t.Fatalf("EASY started %v, want [4]", ids(st.started))
	}
	st, head, queue = mk()
	NewConservative(RequestTime{}).Backfill(st, head, queue)
	if len(st.started) != 0 {
		t.Fatalf("conservative delayed a non-head reservation by starting %v", ids(st.started))
	}
}

func TestConservativeSkipsOversizedCandidates(t *testing.T) {
	st := &memState{now: 0, free: 2, total: 10, running: []Running{
		{Job: job(1, 0, 100, 100, 8), Start: 0},
	}}
	head := job(2, 0, 50, 50, 10)
	wide := job(3, 1, 10, 10, 4) // wider than the 2 free procs
	NewConservative(RequestTime{}).Backfill(st, head, []*trace.Job{wide})
	if len(st.started) != 0 {
		t.Fatal("conservative started a job that does not fit")
	}
}

// TestConservativeRebuildsWhenAStartFellBehind pins the carry's last
// condition on a state that does not run a round at every event. The plan
// made at 0 starts x at 10, when r1 ends; r1 finishes there, at its filed
// end, but the next round comes at 20. Every journal condition holds, yet
// x's planned start is behind now: the plan must be rebuilt, and x start at
// 20 as a fresh plan would start it.
func TestConservativeRebuildsWhenAStartFellBehind(t *testing.T) {
	r1, r2 := job(1, 0, 10, 10, 4), job(2, 0, 50, 50, 4)
	st := &memState{now: 0, free: 0, total: 8, running: []Running{{Job: r1}, {Job: r2}}}
	st.journal.Open()
	head, x := job(3, 0, 100, 100, 8), job(4, 0, 30, 30, 4) // head at 50, x at [10, 40)
	c := NewConservative(RequestTime{})
	c.Backfill(st, head, []*trace.Job{x})
	if len(st.started) != 0 {
		t.Fatalf("started %v on a full machine", ids(st.started))
	}
	st.now = 10
	st.setRunning([]Running{{Job: r2}})
	st.free = 4
	st.now = 20
	c.Backfill(st, head, []*trace.Job{x})
	if !slices.Equal(ids(st.started), []int{4}) {
		t.Fatalf("started %v at 20, want [4]", ids(st.started))
	}
}

func TestConservativeName(t *testing.T) {
	if NewConservative(RequestTime{}).Name() != "CONS-RT" {
		t.Fatal("conservative name wrong")
	}
	if NewEASY(ActualRuntime{}).Name() != "EASY-AR" {
		t.Fatal("easy name wrong")
	}
	if (&EASY{Est: RequestTime{}, Order: SJFOrder}).Name() != "EASY-RT-SJF" {
		t.Fatal("easy sjf name wrong")
	}
}
