package backfill

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

// oracleMachine is the state's machine as internal/oracle sees it.
func oracleMachine(st State, est Estimator) *oracle.Machine {
	m := &oracle.Machine{Now: st.Now(), Procs: st.TotalProcs(), FreeProcs: st.FreeProcs(), Est: est.Estimate}
	m.FreeMem, m.Mem = MemOf(st)
	for _, r := range st.Running() {
		m.Running = append(m.Running, oracle.Running{Job: r.Job, Start: r.Start})
	}
	return m
}

// oracleReservation is what ReservationScratch.Compute must answer: the
// oracle's from-scratch sort of the running set, nothing kept between calls.
func oracleReservation(st State, head *trace.Job, est Estimator) Reservation {
	return Reservation(oracleMachine(st, est).Reservation(head))
}

// fuzzState is a small machine with both resource dimensions whose running
// set the test drives directly, journaling every change. It hands Running
// out in ID order (as the engine does) or in start order (as append-only
// fakes do).
type fuzzState struct {
	now      int64
	procs    int
	mem      int // 0 switches the dimension off
	running  []Running
	idSorted bool
	view     []Running
	journal  Journal
}

func (f *fuzzState) Now() int64               { return f.now }
func (f *fuzzState) TotalProcs() int          { return f.procs }
func (f *fuzzState) TotalMem() int            { return f.mem }
func (f *fuzzState) Journal() *Journal        { return &f.journal }
func (f *fuzzState) Scenario() sched.Scenario { return sched.Scenario{} }

func (f *fuzzState) FreeProcs() int {
	free := f.procs
	for _, r := range f.running {
		free -= r.Job.Procs
	}
	return free
}

func (f *fuzzState) FreeMem() int {
	free := f.mem
	for _, r := range f.running {
		free -= r.Job.Mem
	}
	return free
}

func (f *fuzzState) Running() []Running {
	f.view = append(f.view[:0], f.running...)
	if f.idSorted {
		sort.Slice(f.view, func(a, b int) bool { return f.view[a].Job.ID < f.view[b].Job.ID })
	}
	return f.view
}

func (f *fuzzState) StartJob(j *trace.Job) {
	f.running = append(f.running, Running{Job: j, Start: f.now})
	f.journal.Record(Started, j, f.now)
}

// finish takes the i-th running job off the machine.
func (f *fuzzState) finish(i int) {
	f.journal.Record(Finished, f.running[i].Job, f.now)
	f.running = append(f.running[:i], f.running[i+1:]...)
}

// half underestimates every job, so running jobs outlive their estimated end
// and the end < now clamp decides the shadow.
type half struct{}

func (half) Name() string                { return "half" }
func (half) Estimate(j *trace.Job) int64 { return maxI64(j.Runtime/2, 1) }

// tabled is an estimator of an uncomparable type: == on two of them panics,
// so the index must not compare it and simply rebuilds on every call.
type tabled struct{ scale []int64 }

func (tabled) Name() string                  { return "tabled" }
func (t tabled) Estimate(j *trace.Job) int64 { return maxI64(j.Request*t.scale[j.ID%len(t.scale)], 1) }

// boxed is comparable as a type but may carry an uncomparable estimator.
type boxed struct{ inner Estimator }

func (boxed) Name() string                  { return "boxed" }
func (b boxed) Estimate(j *trace.Job) int64 { return b.inner.Estimate(j) }

// TestReservationIndexDifferential drives one long-lived ReservationScratch
// through fuzzed, journaled start/finish sequences and requires every Compute
// to equal the oracle's from-scratch reservation. The walk covers what can
// invalidate or stress the index: estimators that underestimate, the memory
// dimension switched on and off, the estimator swapped mid-run (including
// for values that cannot be compared), a new episode whose jobs reuse the
// IDs (and often the start times) of the cached ones under a newly opened
// journal, the whole running set turning over between two calls, a job
// restarted later, a burst that drops the entries a lagging index has not
// read, heads that fit at once (so the index skips rounds and catches up on
// a longer stretch), Running handed out in either order, and a state that
// keeps no journal at all.
func TestReservationIndexDifferential(t *testing.T) {
	estimators := []Estimator{
		RequestTime{}, ActualRuntime{}, half{}, Noisy{Level: 0.5, Seed: 9},
		tabled{scale: []int64{1, 2, 3}}, boxed{inner: RequestTime{}}, boxed{inner: tabled{scale: []int64{2}}},
		&Noisy{Level: 0.2, Seed: 3},
	}
	trimmed := 0
	for seed := uint64(1); seed <= 7; seed++ {
		rng := stats.NewRNG(seed)
		intn := func(n int) int { return int(rng.Uint64() % uint64(n)) }
		st := &fuzzState{procs: 96, idSorted: seed%2 == 1}
		if seed%3 != 0 {
			st.mem = 960
		}
		journaled := seed != 7
		if journaled {
			st.journal.Open()
		}
		est := estimators[intn(len(estimators))]
		var s ReservationScratch
		nextID := 1
		newJob := func(id int) *trace.Job {
			run := 1 + int64(intn(400))
			procs := 1 + intn(12)
			return &trace.Job{ID: id, Runtime: run, Request: run + int64(intn(200)), Procs: procs, Mem: procs * (1 + intn(10))}
		}
		start := func(j *trace.Job) {
			if j.Procs <= st.FreeProcs() && (st.mem == 0 || j.Mem <= st.FreeMem()) {
				st.StartJob(j)
			}
		}
		calls, waited, fed := 0, 0, 0
		for step := 0; step < 1500; step++ {
			st.now += int64(intn(30))
			// finish what has really ended, and now and then a job early
			for i := len(st.running) - 1; i >= 0; i-- {
				if r := st.running[i]; r.Start+r.Job.Runtime <= st.now || intn(40) == 0 {
					st.finish(i)
				}
			}
			for k := intn(4); k > 0; k-- {
				start(newJob(nextID))
				nextID++
			}
			switch intn(60) {
			case 0: // swap the estimator mid-run
				est = estimators[intn(len(estimators))]
			case 1: // flip the memory dimension
				if st.mem == 0 {
					st.mem = 960
					for st.FreeMem() < 0 {
						st.finish(len(st.running) - 1)
					}
				} else {
					st.mem = 0
				}
			case 2: // a new episode: other jobs under the same IDs, same starts
				for i, r := range st.running {
					c := *r.Job
					switch intn(3) {
					case 0:
						c.Request += 50
					case 1: // same estimated end, frees less
						c.Procs = (c.Procs + 1) / 2
					}
					st.running[i].Job = &c
				}
				if n := len(st.running); n > 1 { // and in another order
					st.running = append(st.running[1:n:n], st.running[0])
				}
				if journaled {
					st.journal.Open()
				}
			case 3: // the whole set turns over between two calls
				for len(st.running) > 0 {
					st.finish(0)
				}
				for k := 0; k < 40; k++ {
					start(newJob(nextID))
					nextID++
				}
			case 4: // a restart: the same job object, a later start
				if len(st.running) > 0 {
					i := intn(len(st.running))
					j := st.running[i].Job
					st.finish(i)
					st.StartJob(j)
				}
			case 5: // a burst of short jobs drops what the index has not read
				for k := 0; k < journalCap && st.FreeProcs() > 0; k++ {
					j := newJob(nextID)
					nextID++
					j.Procs, j.Mem = 1, 0
					st.StartJob(j)
					st.finish(len(st.running) - 1)
				}
				if _, ok := st.journal.Since(s.at); !ok && journaled && s.est != nil {
					trimmed++
				}
			}
			for k := 1 + intn(3); k > 0; k-- {
				head := newJob(-1)
				head.Procs = 1 + intn(st.procs)
				head.Mem = intn(st.mem + 1)
				if _, ok := st.journal.Since(s.at); ok && s.est != nil {
					fed++
				}
				got, want := s.Compute(st, head, est), oracleReservation(st, head, est)
				if got != want {
					t.Fatalf("seed %d step %d (%s, mem %d, %d running): index %+v, oracle %+v",
						seed, step, est.Name(), st.mem, len(st.running), got, want)
				}
				calls++
				if want.Shadow > st.now || head.Procs > st.FreeProcs() {
					waited++
				}
			}
		}
		if waited < calls/4 {
			t.Fatalf("seed %d: only %d of %d reservations had to wait; the fuzz is not exercising the index", seed, waited, calls)
		}
		if journaled != (fed > calls/3) {
			t.Fatalf("seed %d (journaled %v): %d of %d reservations resumed from the journal", seed, journaled, fed, calls)
		}
	}
	if trimmed == 0 {
		t.Fatal("no burst ever dropped entries a lagging index still needed")
	}
}

// TestReservationIndexSharedKey is the one case the fuzz reaches too rarely:
// Running out of ID order, and a job replaced by another with the same ID and
// the same estimated end but a different width, so that the journal finishes
// one and starts the other under one key and the index must keep the right
// one.
func TestReservationIndexSharedKey(t *testing.T) {
	y, x := job(9, 0, 500, 500, 4), job(5, 0, 300, 300, 6)
	st := &fuzzState{procs: 16, running: []Running{{Job: y}, {Job: x}}}
	st.journal.Open()
	head := job(20, 0, 10, 10, 12)
	var s ReservationScratch
	est := RequestTime{}
	if got, want := s.Compute(st, head, est), oracleReservation(st, head, est); got != want {
		t.Fatalf("before: index %+v, oracle %+v", got, want)
	}
	x2 := *x
	x2.Procs = 2
	st.finish(1)
	st.StartJob(&x2)
	if got, want := s.Compute(st, head, est), oracleReservation(st, head, est); got != want {
		t.Fatalf("after the swap: index %+v, oracle %+v", got, want)
	}
}

// TestReservationIndexEstimateOncePerStart pins the cost model the index is
// for: across a run of blocked rounds the estimator is asked once per job
// that starts, not once per running job per round, and finishes cost none.
func TestReservationIndexEstimateOncePerStart(t *testing.T) {
	st := &fuzzState{procs: 64, idSorted: true}
	st.journal.Open()
	est := &countingEstimator{}
	var s ReservationScratch
	head := &trace.Job{ID: -1, Runtime: 10, Request: 10, Procs: 64}
	for id := 1; id <= 200; id++ {
		st.now += 5
		if len(st.running) == 16 {
			st.finish(0)
		}
		st.StartJob(&trace.Job{ID: id, Runtime: 1000, Request: 1000, Procs: 2})
		s.Compute(st, head, est)
		s.Compute(st, head, est)
	}
	if est.calls != 200 {
		t.Fatalf("estimator called %d times for 200 job starts over 400 reservations", est.calls)
	}
}

type countingEstimator struct{ calls int }

func (*countingEstimator) Name() string { return "counting" }
func (c *countingEstimator) Estimate(j *trace.Job) int64 {
	c.calls++
	return maxI64(j.Request, 1)
}

// TestReservationAndEASYRoundNoAllocs guards the steady state: once the
// buffers are warm, a reservation on a changing running set, a whole EASY
// round (fitting candidates, reservation, starts), a round answered by the
// previous round's verdict and a finish round answered by the live list
// allocate nothing.
func TestReservationAndEASYRoundNoAllocs(t *testing.T) {
	st := &memState{total: 64, running: make([]Running, 0, 64), started: make([]*trace.Job, 0, 64)}
	st.journal.Open()
	var runners []*trace.Job
	for id := 1; id <= 20; id++ {
		runners = append(runners, job(id, 0, 3000, int64(2000+id*7), 3))
	}
	head := job(100, 0, 50, 50, 40)
	var queue []*trace.Job
	for i := 0; i < 30; i++ {
		procs := 1
		if i%3 == 0 {
			procs = 30 // never fits the 4 free processors
		}
		queue = append(queue, job(200+i, 0, 20, int64(20+i), procs))
	}
	spares := []*trace.Job{job(31, 0, 3000, 2005, 3), job(32, 0, 3000, 2090, 3), job(33, 0, 3000, 2300, 3)}
	round := 0
	next := make([]Running, 0, 64)
	reset := func() {
		// 20 jobs on 60 of 64 processors. Every round one of the regulars
		// is replaced by another spare, so the index always has a finish
		// and a start to apply; what the last round started finishes too.
		st.now, st.free = 1000, 4
		next = next[:0]
		for i, j := range runners {
			if i != round%len(runners) {
				next = append(next, Running{Job: j})
			}
		}
		next = append(next, Running{Job: spares[round%len(spares)]})
		st.setRunning(next)
		st.started = st.started[:0]
		round++
	}

	var s ReservationScratch
	est := RequestTime{}
	for i := 0; i < 3; i++ {
		reset()
		s.Compute(st, head, est)
	}
	if avg := testing.AllocsPerRun(200, func() {
		reset()
		s.Compute(st, head, est)
	}); avg != 0 {
		t.Fatalf("steady-state Compute allocates %v per run, want 0", avg)
	}

	for _, e := range []*EASY{NewEASY(est), {Est: est, Order: SJFOrder}} {
		for i := 0; i < 3; i++ {
			reset()
			e.Backfill(st, head, queue)
		}
		if len(st.started) == 0 {
			t.Fatalf("%s: fixture round starts nothing", e.Name())
		}
		if avg := testing.AllocsPerRun(200, func() {
			reset()
			e.Backfill(st, head, queue)
		}); avg != 0 {
			t.Fatalf("%s round allocates %v per run, want 0", e.Name(), avg)
		}
	}

	// Two-processor jobs that run far past the shadow fit the free
	// processors but not the head's extra, so a round over them starts
	// nothing. Each later round sees one more such arrival, and the verdict
	// answers it by estimating the arrival alone.
	idle := make([]*trace.Job, 0, 16)
	for i := 0; i < 10; i++ {
		idle = append(idle, job(300+i, 0, 5000, 5000, 2))
	}
	late := job(400, 0, 5000, 5000, 2)
	for _, order := range []CandidateOrder{PolicyOrder, SJFOrder} {
		ce := &countingEstimator{}
		e := &EASY{Est: ce, Order: order}
		reset()
		e.Backfill(st, head, idle)
		if len(st.started) != 0 {
			t.Fatalf("%s: idle fixture started %d jobs", e.Name(), len(st.started))
		}
		withLate := append(idle, late)
		ce.calls = 0
		const runs = 200
		if avg := testing.AllocsPerRun(runs, func() {
			st.journal.Record(Arrived, late, st.now)
			e.Backfill(st, head, withLate)
		}); avg != 0 {
			t.Fatalf("%s verdict round allocates %v per run, want 0", e.Name(), avg)
		}
		if len(st.started) != 0 || ce.calls != runs+1 {
			t.Fatalf("%s: %d rounds after an idle one started %d jobs after %d estimates, want only the arrivals estimated",
				e.Name(), runs+1, len(st.started), ce.calls)
		}
	}

	// Five-processor jobs that end by the shadow go on the list but never
	// fit the four free processors. Every later round, the two-processor
	// job the last round started finishes and arrives again: the list is
	// rescanned in place, the arrival starts, and the list is left as it
	// was. Each round estimates the arrival and the index's start only.
	waiting := make([]*trace.Job, 0, 16)
	for i := 0; i < 10; i++ {
		waiting = append(waiting, job(500+i, 0, 20, 20, 5))
	}
	again := job(600, 0, 30, 30, 2)
	ce := &countingEstimator{}
	e := NewEASY(ce)
	reset()
	e.Backfill(st, head, append(waiting, again))
	if !slices.Equal(ids(st.started), []int{600}) {
		t.Fatalf("list fixture started %v, want [600]", ids(st.started))
	}
	withAgain := append(waiting, again)
	ce.calls = 0
	const runs = 200
	if avg := testing.AllocsPerRun(runs, func() {
		st.running, st.free, st.started = st.running[:len(st.running)-1], st.free+again.Procs, st.started[:0]
		st.journal.Record(Finished, again, st.now)
		st.journal.Record(Arrived, again, st.now)
		e.Backfill(st, head, withAgain)
	}); avg != 0 {
		t.Fatalf("list round allocates %v per run, want 0", avg)
	}
	if !slices.Equal(ids(st.started), []int{600}) || ce.calls != 2*(runs+1) {
		t.Fatalf("%d list rounds: the last started %v after %d estimates in all, want [600] and 2 per round",
			runs+1, ids(st.started), ce.calls)
	}
}

// TestConservativeCarriedRoundNoAllocs guards conservative backfilling's
// steady state: once the buffers are warm, a carried round — a finish at
// its span's end, an arrival placed at the tail and started now, the
// tombstones it leaves compacted away every few rounds, the profile trimmed
// — allocates nothing.
func TestConservativeCarriedRoundNoAllocs(t *testing.T) {
	// 10 processors, 8 held for good: the head (all 10) and the waiting
	// 4-processor jobs never start. Every round a 2-processor job that
	// ends before the head's start arrives, fits the free processors and
	// starts; the next round it finishes at its filed end and arrives again.
	long := Running{Job: job(1, 0, 1<<40, 1<<40, 8)}
	st := &runningReads{memState: &memState{free: 2, total: 10, running: make([]Running, 0, 4), started: make([]*trace.Job, 0, 4)}}
	st.running = append(st.running, long)
	st.journal.Open()
	head := job(2, 0, 50, 50, 10)
	again := job(3, 0, 5, 5, 2)
	queue := []*trace.Job{job(4, 0, 50, 50, 4), job(5, 0, 50, 50, 4), job(6, 0, 50, 50, 4), again}
	base := []Running{long}
	c := NewConservative(RequestTime{})
	c.Backfill(st, head, queue)
	round := func() {
		st.now += 5 // the job started last round ends here, at its filed end
		st.setRunning(base)
		st.free = 2
		st.now += 5
		st.journal.Record(Arrived, again, st.now)
		st.started = st.started[:0]
		c.Backfill(st, head, queue)
	}
	for i := 0; i < 10; i++ {
		round()
	}
	reads := st.reads
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("carried conservative round allocates %v per run, want 0", avg)
	}
	if st.reads != reads || !slices.Equal(ids(st.started), []int{3}) {
		t.Fatalf("the rounds read the running set %d times and the last started %v, want carried rounds starting [3]",
			st.reads-reads, ids(st.started))
	}
}
