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
