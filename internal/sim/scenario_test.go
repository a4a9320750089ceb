package sim

import (
	"sort"
	"testing"

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestStarvationBoundRescuesLowTier pins the aging semantics on a crafted
// trace: a machine-filling stream of high-tier jobs starves a low-tier job
// indefinitely under pure priority scheduling, and the starvation bound is
// what rescues it at exactly its starvation instant.
func TestStarvationBoundRescuesLowTier(t *testing.T) {
	mk := func() *trace.Trace {
		tr := &trace.Trace{Name: "starve", Procs: 4}
		// The low-tier victim: 1 proc, requests 100s.
		tr.Jobs = append(tr.Jobs, &trace.Job{ID: 1, Submit: 0, Runtime: 50, Request: 100, Procs: 1, Priority: 0})
		// Ten machine-filling high-tier jobs arriving back to back.
		for i := 0; i < 10; i++ {
			tr.Jobs = append(tr.Jobs, &trace.Job{
				ID: 2 + i, Submit: int64(100 * i), Runtime: 100, Request: 100, Procs: 4, Priority: 1,
			})
		}
		sort.SliceStable(tr.Jobs, func(a, b int) bool { return tr.Jobs[a].Submit < tr.Jobs[b].Submit })
		return tr
	}
	runWith := func(scn sched.Scenario) int64 {
		res, err := Run(mk(), Config{Policy: sched.FCFS{}, Scenario: scn})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Records {
			if r.Job.ID == 1 {
				return r.Start
			}
		}
		t.Fatal("victim job never ran")
		return -1
	}
	// Priorities alone: the victim waits out the whole high-tier stream.
	if got := runWith(sched.Scenario{Priorities: true}); got != 1000 {
		t.Fatalf("priorities only: victim started at %d, want 1000", got)
	}
	// Bound 2: StarvesAt = 0 + 2*100 = 200; the completion event at t=200 is
	// the first instant the (now starving) victim ranks first and fits.
	if got := runWith(sched.Scenario{Priorities: true, StarvationBound: 2}); got != 200 {
		t.Fatalf("starvation bound 2: victim started at %d, want 200", got)
	}
}

// TestStarvationOrderProperty fuzzes the aging guarantee: with no backfiller,
// a non-starving job can never start while a starving job that would also
// have fit (fewer procs, no more memory) is left waiting. Starving jobs sort
// ahead of everything non-starving, and without backfilling only the queue
// head can start, so any such pair is an ordering bug.
func TestStarvationOrderProperty(t *testing.T) {
	scn := sched.Scenario{Priorities: true, StarvationBound: 2}
	for seed := uint64(1); seed <= 8; seed++ {
		r := stats.NewRNG(seed * 91)
		tr := &trace.Trace{Name: "starve-fuzz", Procs: 16}
		var submit int64
		for i := 0; i < 60; i++ {
			if r.Intn(4) > 0 {
				submit += r.Int63n(60)
			}
			run := r.Int63n(400) + 1
			tr.Jobs = append(tr.Jobs, &trace.Job{
				ID: i + 1, Submit: submit, Runtime: run, Request: run + r.Int63n(200),
				Procs: r.Intn(16) + 1, Priority: int32(r.Intn(3)),
			})
		}
		for _, p := range []sched.Policy{sched.FCFS{}, sched.WFP3{}} {
			res, err := Run(tr.Clone(), Config{Policy: p, Scenario: scn})
			if err != nil {
				t.Fatal(err)
			}
			starts := make(map[int]int64, len(res.Records))
			for _, rec := range res.Records {
				starts[rec.Job.ID] = rec.Start
			}
			for _, x := range res.Records {
				if x.Start >= scn.StarvesAt(x.Job) {
					continue // x itself starving: starving-vs-starving order is by tier/base policy
				}
				for _, y := range res.Records {
					if y.Job == x.Job || y.Job.Submit > x.Start || starts[y.Job.ID] <= x.Start {
						continue // y not waiting strictly past x's start
					}
					if x.Start >= scn.StarvesAt(y.Job) && y.Job.Procs <= x.Job.Procs {
						t.Fatalf("seed %d %s: non-starving job %d started at %d while starving job %d (procs %d <= %d) kept waiting until %d",
							seed, p.Name(), x.Job.ID, x.Start, y.Job.ID, y.Job.Procs, x.Job.Procs, starts[y.Job.ID])
					}
				}
			}
		}
	}
}
