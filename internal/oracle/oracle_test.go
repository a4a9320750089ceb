package oracle

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
)

// handTrace is six jobs on 8 processors, each running exactly its request:
//
//	job  submit  procs  runtime
//	 1     0       7      100
//	 2     1       6      100
//	 3     2       2      120
//	 4     3       1      170
//	 5     4       1      150
//	 6     5       1       90
//
// Job 1 leaves one processor free until 100. Job 2 needs 6 and waits for it;
// its EASY reservation is shadow 100 with 2 extra. In the base plan job 3
// goes at 100 beside job 2, jobs 4 and 5 at 200, and job 6 at 5, in the
// one-processor hole that closes at 100.
func handTrace() *trace.Trace {
	tr := &trace.Trace{Name: "hand", Procs: 8}
	for _, j := range [][4]int64{{1, 0, 7, 100}, {2, 1, 6, 100}, {3, 2, 2, 120}, {4, 3, 1, 170}, {5, 4, 1, 150}, {6, 5, 1, 90}} {
		tr.Jobs = append(tr.Jobs, &trace.Job{ID: int(j[0]), Submit: j[1], Procs: int(j[2]), Runtime: j[3], Request: j[3]})
	}
	return tr
}

func request(j *trace.Job) int64 { return j.Request }

// TestHandWorkedSchedules pins the oracle itself, so that a bug it shared with
// the engine could not pass every differential. FCFS, estimates exact.
func TestHandWorkedSchedules(t *testing.T) {
	for _, c := range []struct {
		name   string
		bf     Backfiller
		starts map[int]int64
	}{
		// None: job 2 blocks the queue until job 1 ends at 100; jobs 2 and 3
		// then fill the machine, and jobs 4-6 wait for job 2 to end at 200.
		{"none", nil, map[int]int64{1: 0, 2: 100, 3: 100, 4: 200, 5: 200, 6: 200}},
		// Conservative: at 3 job 4 would hold the free processor until 173,
		// so job 3 could not start until 173 instead of 100; at 4 job 5 would
		// push it to 154. At 5 job 6 ends by 95, inside the hole, and moves no
		// one: it starts. At 95 jobs 4 and 5 still push job 3 past 100. At 100
		// jobs 2 and 3 start, at 200 jobs 4 and 5.
		{"conservative", Conservative(), map[int]int64{1: 0, 6: 5, 2: 100, 3: 100, 4: 200, 5: 200}},
		// EASY protects only job 2: at 3 job 4 ends after the shadow (173 >
		// 100) but fits the 2 extra processors, so it starts, and the machine
		// is full until 100. At 100 job 2 starts; job 3 is head with shadow
		// 173 (job 4's end) and 0 extra, which shuts out jobs 5 (ends 250)
		// and 6 (ends 190). Job 3 starts at 173, jobs 5 and 6 at 200.
		{"easy", EASY(false), map[int]int64{1: 0, 4: 3, 2: 100, 3: 173, 5: 200, 6: 200}},
	} {
		recs := Run(handTrace(), sched.FCFS{}, sched.Scenario{}, request, c.bf)
		if len(recs) != len(c.starts) {
			t.Fatalf("%s: %d records, want %d", c.name, len(recs), len(c.starts))
		}
		for _, r := range recs {
			if want := c.starts[r.Job.ID]; r.Start != want || r.End != want+r.Job.Runtime {
				t.Errorf("%s: job %d ran [%d,%d), want start %d", c.name, r.Job.ID, r.Start, r.End, want)
			}
		}
	}
}

// TestProfilePanicsOnImpossibleDemand checks that the oracle fails loudly
// where an answer would have to be invented.
func TestProfilePanicsOnImpossibleDemand(t *testing.T) {
	p := &Profile{Procs: 4, Mem: 10}
	// duration, procs, mem: over the processors, over the memory, no window
	for _, d := range [][3]int{{10, 5, 0}, {10, 1, 11}, {0, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FindStart(0, %d, %d, %d) returned instead of panicking", d[0], d[1], d[2])
				}
			}()
			p.FindStart(0, int64(d[0]), d[1], d[2])
		}()
	}
}

// TestReservationAndPlan pins the other two entry points on a machine with
// memory: the EASY reservation waits for both dimensions, and the base plan
// treats an overdue running job as releasing at now+1.
func TestReservationAndPlan(t *testing.T) {
	m := Machine{
		Now: 50, Procs: 8, Mem: 100, FreeProcs: 2, FreeMem: 10, Est: request,
		Running: []Running{
			{Job: &trace.Job{ID: 1, Procs: 4, Mem: 20, Request: 60}, Start: 0},  // ends 60
			{Job: &trace.Job{ID: 2, Procs: 2, Mem: 70, Request: 100}, Start: 0}, // ends 100
		},
	}
	// 4 procs are free from 60, but 50 memory only from 100.
	if got, want := m.Reservation(&trace.Job{Procs: 4, Mem: 50}), (Reservation{Shadow: 100, Extra: 4, ExtraMem: 50}); got != want {
		t.Fatalf("reservation %+v, want %+v", got, want)
	}
	m.Now = 70 // job 1 is overdue: assumed to end at 71
	jobs := []*trace.Job{{ID: 3, Procs: 6, Request: 10}, {ID: 4, Procs: 2, Mem: 40, Request: 5}}
	if got := m.Plan(jobs); got[0] != 71 || got[1] != 100 {
		t.Fatalf("plan %v, want [71 100]", got)
	}
}
