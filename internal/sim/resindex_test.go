package sim

import (
	"sort"
	"testing"

	"repro/internal/backfill"
	"repro/internal/sched"
	"repro/internal/trace"
)

// refReservationMem is refComputeReservation with the memory dimension: the
// stateless sort-per-call model the reservation index must equal.
func refReservationMem(st backfill.State, head *trace.Job, est backfill.Estimator) backfill.Reservation {
	free := st.FreeProcs()
	memFree, memTotal := backfill.MemOf(st)
	mem := func(j *trace.Job) int {
		if memTotal == 0 {
			return 0
		}
		return j.Mem
	}
	if free >= head.Procs && memFree >= mem(head) {
		return backfill.Reservation{Shadow: st.Now(), Extra: free - head.Procs, ExtraMem: memFree - mem(head)}
	}
	running := append([]backfill.Running(nil), st.Running()...)
	sort.Slice(running, func(a, b int) bool {
		ea := running[a].Start + est.Estimate(running[a].Job)
		eb := running[b].Start + est.Estimate(running[b].Job)
		if ea != eb {
			return ea < eb
		}
		return running[a].Job.ID < running[b].Job.ID
	})
	avail, availMem := free, memFree
	for _, r := range running {
		avail += r.Job.Procs
		availMem += mem(r.Job)
		if avail >= head.Procs && availMem >= mem(head) {
			end := r.Start + est.Estimate(r.Job)
			if end < st.Now() {
				end = st.Now()
			}
			return backfill.Reservation{Shadow: end, Extra: avail - head.Procs, ExtraMem: availMem - mem(head)}
		}
	}
	return backfill.Reservation{Shadow: st.Now(), Extra: 0}
}

// indexChecker is EASY with a second, long-lived reservation index beside
// it: before and after every round it asks the index for the head's and a
// few queued jobs' reservations and requires each to equal the stateless
// reference. It deliberately does not implement Cloneable, and one checker
// is carried from engine to engine.
type indexChecker struct {
	t       *testing.T
	label   string
	est     backfill.Estimator
	inner   backfill.Backfiller
	res     backfill.ReservationScratch
	rounds  int
	indexed int
}

func (c *indexChecker) Name() string { return "index-check" }

func (c *indexChecker) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	c.rounds++
	c.check(st, head)
	for i := 0; i < len(queue) && i < 3; i++ {
		c.check(st, queue[len(queue)-1-i])
	}
	c.inner.Backfill(st, head, queue)
	c.check(st, head)
}

func (c *indexChecker) check(st backfill.State, j *trace.Job) {
	got, want := c.res.Compute(st, j, c.est), refReservationMem(st, j, c.est)
	if got != want {
		c.t.Fatalf("%s: round %d at t=%d, job %d, %d running: index %+v, reference %+v",
			c.label, c.rounds, st.Now(), j.ID, len(st.Running()), got, want)
	}
	if j.Procs > st.FreeProcs() {
		c.indexed++ // the answer came from the index, not the fits-now shortcut
	}
}

// TestReservationIndexDifferential is the engine half of the test of the
// same name in internal/backfill: one reservation index, fed by each
// engine's journal, is carried through real engines — a replay, a second
// engine over the same job objects, a third over a clone whose jobs reuse
// the IDs, a snapshot restore, a live engine fed by Inject and thinned by
// Cancel, and a replay during which the index lags until its journal
// entries are dropped — with and without the memory dimension and under an
// estimator that underestimates, and must agree with the stateless
// reference on every reservation.
func TestReservationIndexDifferential(t *testing.T) {
	plain := trace.SyntheticSDSCSP2(500, 3)
	withMem := mustEnrich(t, trace.SyntheticSDSCSP2(500, 5), trace.EnrichSpec{MemDist: trace.MemDistProp, Seed: 11})
	estimators := []backfill.Estimator{backfill.RequestTime{}, underEstimator{}, backfill.Noisy{Level: 0.4, Seed: 2}}
	for ti, tr := range []*trace.Trace{plain, withMem} {
		for _, est := range estimators {
			c := &indexChecker{t: t, est: est, inner: backfill.NewEASY(est)}
			cfg := Config{Policy: sched.FCFS{}, Backfiller: c}
			run := func(label string, tr *trace.Trace) {
				c.label = label + "/" + est.Name()
				mustRun(t, tr, cfg)
			}
			run("replay", tr)
			run("same jobs again", tr)
			run("clone with the same IDs", tr.Clone())

			// Cut a replay, restore it into a new engine, carry on.
			c.label = "snapshot/" + est.Name()
			work := tr.Clone()
			a, err := NewEngine(work, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !a.RunUntil(work.Jobs[len(work.Jobs)/2].Submit) {
				t.Fatal("replay drained before the cut")
			}
			snap := a.Snapshot()
			rest := &trace.Trace{Name: work.Name, Procs: work.Procs, Mem: work.Mem, Jobs: work.Jobs[snap.NextArrival:]}
			b, err := NewEngineFromSnapshot(rest, cfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			b.RunToCompletion()

			// Live: inject job by job, cancel every seventh job while it
			// still waits.
			c.label = "live/" + est.Name()
			live, err := NewLiveEngine(tr.Name, tr.Procs, tr.Mem, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, j := range tr.Jobs {
				if j.Submit > 0 {
					live.RunUntil(j.Submit - 1)
				}
				if err := live.Inject(j.Clone()); err != nil {
					t.Fatal(err)
				}
				if i%7 == 6 {
					live.Cancel(tr.Jobs[i-3].ID)
				}
			}
			live.RunToCompletion()

			if c.rounds < 100 || c.indexed < c.rounds {
				t.Fatalf("trace %d, %s: %d rounds, %d reservations read off the index: too few to test anything", ti, est.Name(), c.rounds, c.indexed)
			}

			// Sit the checker out until its journal entries are dropped.
			c.label = "lagging/" + est.Name()
			lag := &lagging{inner: c}
			mustRun(t, tr.Clone(), Config{Policy: sched.FCFS{}, Backfiller: lag})
			if lag.trimmed == 0 {
				t.Fatalf("trace %d, %s: the lagging index never found its cursor trimmed", ti, est.Name())
			}
		}
	}
}

// underEstimator predicts a third of the true runtime, so most running jobs
// outlive their estimated end.
type underEstimator struct{}

func (underEstimator) Name() string { return "AR/3" }
func (underEstimator) Estimate(j *trace.Job) int64 {
	if e := j.Runtime / 3; e > 1 {
		return e
	}
	return 1
}
