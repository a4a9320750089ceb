package backfill

import (
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// raw passes the request through as the estimate, unfloored, so that a
// placement can carry a zero or negative duration.
type raw struct{}

func (raw) Name() string                { return "raw" }
func (raw) Estimate(j *trace.Job) int64 { return j.Request }

// floorJob draws a job whose width and duration often share a bucket with
// earlier ones, and now and then is of no width, wider than the machine (up
// to the table's open-ended buckets), or of no, negative or very long
// duration; its memory demand may exceed the machine's.
func floorJob(rng *stats.RNG, id, total, memTotal int) *trace.Job {
	procs := 1 + int(rng.Uint64()%uint64(total))
	switch rng.Uint64() % 10 {
	case 0:
		procs = -int(rng.Uint64() % 2)
	case 1:
		procs = total + 1 + int(rng.Uint64()%5)
	case 2:
		procs = 1 << (10 + rng.Uint64()%8) // up to the open-ended top bucket
	}
	dur := 1 + int64(rng.Uint64()%64)
	switch rng.Uint64() % 10 {
	case 0:
		dur = -int64(rng.Uint64() % 2)
	case 1:
		dur = 64 + int64(rng.Uint64()%2000)
	case 2:
		dur = 1 << (18 + rng.Uint64()%8)
	}
	j := job(id, 0, dur, dur, procs)
	j.Mem = int(rng.Uint64() % uint64(memTotal+3))
	return j
}

// floorState draws a machine with the memory dimension on or off and a
// running set that fits it, some of it past its estimated end.
func floorState(rng *stats.RNG, withMem bool) *fuzzState {
	st := &fuzzState{now: int64(rng.Uint64() % 1000), procs: 1 + int(rng.Uint64()%40)}
	if withMem {
		st.mem = 1 + int(rng.Uint64()%32)
	}
	free, freeMem := st.procs, st.mem
	for i := range int(rng.Uint64() % 6) {
		run := 1 + int64(rng.Uint64()%300)
		j := job(100+i, 0, run, run, 1+int(rng.Uint64()%uint64(st.procs)))
		j.Mem = int(rng.Uint64() % uint64(st.mem+1))
		if j.Procs > free || j.Mem > freeMem {
			continue
		}
		st.running = append(st.running, Running{Job: j, Start: st.now - int64(rng.Uint64()%400)})
		free, freeMem = free-j.Procs, freeMem-j.Mem
	}
	return st
}

// fromNow is the plan without the floor: every job placed in order on the
// running set's profile from now, failed reservations skipped.
func (pl *planner) fromNow(st State, est Estimator, jobs []*trace.Job) []int64 {
	p := pl.fill(st, est, st.Now())
	starts := make([]int64, len(jobs))
	for i, j := range jobs {
		d := est.Estimate(j)
		starts[i] = p.FindStart(st.Now(), d, j.Procs, j.Mem)
		_ = p.ReserveFound(starts[i], starts[i]+d, j.Procs, j.Mem)
	}
	return starts
}

// TestPlannerFloorDifferential requires every start placeBase finds from
// its dominance floor to be the start FindStart finds from now on the same
// profile: over builds on machines with and without memory, jobs of no
// width, wider than the machine, or of no duration (whose reservations
// fail), rounds carried on by trimming the profile to a later now, and
// Predictor.Project, whose failed reservations are recorded and skipped.
func TestPlannerFloorDifferential(t *testing.T) {
	rng := stats.NewRNG(43)
	var pl, ref planner
	var pred Predictor
	placed := 0
	for trial := range 400 {
		st := floorState(rng, trial%2 == 1)
		now := st.now
		p := pl.fill(st, raw{}, now)
		pl.plan = pl.plan[:0]
		id := 1000
		for round := range 1 + int(rng.Uint64()%8) {
			if round > 0 {
				now += int64(rng.Uint64() % 50)
				p.Trim(now)
			}
			for range 1 + int(rng.Uint64()%16) {
				j := floorJob(rng, id, st.procs, st.mem)
				id++
				want := p.FindStart(now, j.Request, j.Procs, j.Mem)
				_ = pl.placeBase(p, raw{}, now, j)
				if got := pl.plan[len(pl.plan)-1].start; got != want {
					t.Fatalf("trial %d round %d: job %dx%d (mem %d) placed at %d, FindStart from now %d finds %d",
						trial, round, j.Procs, j.Request, j.Mem, got, now, want)
				}
				placed++
			}
		}

		var queue []*trace.Job
		for i := range 1 + int(rng.Uint64()%24) {
			queue = append(queue, floorJob(rng, 2000+i, st.procs, st.mem))
		}
		got := pred.Project(st, raw{}, queue, nil)
		want := ref.fromNow(st, raw{}, queue)
		for i, j := range queue {
			if got[i].Start != want[i] {
				t.Fatalf("trial %d: projected job %d (%dx%d, mem %d) at %d, FindStart from now finds %d",
					trial, i, j.Procs, j.Request, j.Mem, got[i].Start, want[i])
			}
		}
	}
	if placed < 10_000 {
		t.Fatalf("only %d placements checked", placed)
	}
}

// TestConservativeFloorAcrossCarriedRounds drives conservative backfilling
// on a journaled fake engine, FCFS with most jobs finishing at their
// requests and the rest early, so that rebuilds are followed by runs of
// carried rounds. After every round the live plan must be head + queue,
// each job at the start FindStart finds for it from now.
func TestConservativeFloorAcrossCarriedRounds(t *testing.T) {
	rng := stats.NewRNG(44)
	var ref planner
	rounds, carried := 0, 0
	for trial := range 8 {
		st := &fuzzState{procs: 16 + int(rng.Uint64()%48), idSorted: true}
		if trial%2 == 1 {
			st.mem = 8 + int(rng.Uint64()%24)
		}
		st.journal.Open()
		var arrivals []*trace.Job
		submit := int64(0)
		for i := range 300 {
			submit += int64(rng.Uint64() % 12)
			req := 1 + int64(rng.Uint64()%200)
			run := req
			if rng.Uint64()%4 == 0 {
				run = 1 + int64(rng.Uint64()%uint64(req))
			}
			j := job(i+1, submit, run, req, 1+int(rng.Uint64()%uint64(st.procs)))
			j.Mem = int(rng.Uint64() % uint64(st.mem+1))
			arrivals = append(arrivals, j)
		}
		c := NewConservative(RequestTime{})
		var queue []*trace.Job
		for len(arrivals) > 0 || len(queue) > 0 || len(st.running) > 0 {
			st.now = math.MaxInt64
			for _, r := range st.running {
				st.now = min(st.now, r.Start+r.Job.Runtime)
			}
			if len(arrivals) > 0 {
				st.now = min(st.now, arrivals[0].Submit)
			}
			slices.SortFunc(st.running, func(a, b Running) int { return a.Job.ID - b.Job.ID })
			for i := 0; i < len(st.running); {
				if r := st.running[i]; r.Start+r.Job.Runtime == st.now {
					st.finish(i)
				} else {
					i++
				}
			}
			for len(arrivals) > 0 && arrivals[0].Submit == st.now {
				queue = append(queue, arrivals[0])
				st.journal.Record(Arrived, arrivals[0], st.now)
				arrivals = arrivals[1:]
			}
			for len(queue) > 0 && queue[0].Procs <= st.FreeProcs() && (st.mem == 0 || queue[0].Mem <= st.FreeMem()) {
				st.StartJob(queue[0])
				queue = queue[1:]
			}
			if len(queue) == 0 {
				continue
			}
			n := len(st.running)
			c.Backfill(st, queue[0], queue[1:])
			for _, r := range st.running[n:] {
				queue = slices.DeleteFunc(queue, func(j *trace.Job) bool { return j == r.Job })
			}
			rounds++
			if c.indexed {
				carried++
			}
			want := ref.fromNow(st, RequestTime{}, queue)
			k := 0
			for _, e := range c.pl.plan[c.lo:] {
				if e.job == nil {
					continue
				}
				if k == len(queue) {
					t.Fatalf("trial %d at %d: live plan holds more jobs than the queue's %d", trial, st.now, k)
				}
				if e.job != queue[k] || e.start != want[k] {
					t.Fatalf("trial %d at %d: live plan entry %d is job %d at %d, FindStart from now places job %d at %d",
						trial, st.now, k, e.job.ID, e.start, queue[k].ID, want[k])
				}
				k++
			}
			if k != len(queue) {
				t.Fatalf("trial %d at %d: live plan holds %d jobs, queue %d", trial, st.now, k, len(queue))
			}
		}
	}
	if carried < rounds/4 || carried == rounds {
		t.Fatalf("%d of %d rounds carried the plan, want at least a quarter and not all", carried, rounds)
	}
	t.Logf("%d rounds, %d carried", rounds, carried)
}
