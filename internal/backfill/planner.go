package backfill

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// planEntry is one job's base placement in a backfill round: its runtime
// estimate and the start FindStart assigned under the round's base profile.
type planEntry struct {
	job   *trace.Job
	dur   int64
	start int64
}

// planner is the per-round machinery of conservative backfilling, shared
// with the Predictor. A round builds the availability profile from the
// running set exactly once (one bulk ResetSpans sweep), records every
// waiting job's base reservation under a checkpoint, and then trial-places
// each candidate under its own checkpoint — rollback restores the base
// profile in O(touched segments), so nothing is ever rebuilt within a round
// (DESIGN.md §9). All storage is reused across rounds; a planner is not
// goroutine-safe (backfillers are cloned per worker, see Cloneable).
type planner struct {
	prof   cluster.VecProfile
	spans  []cluster.Span
	plan   []planEntry // base placement, in policy order: head first, then queue
	sufMin []int64     // sufMin[i] = min base start over plan[i:]
}

// fill resets the profile to the availability implied by the running jobs'
// estimated completions. A job that has outlived its estimate (end <= now)
// is assumed to release imminently (now + 1). Running jobs always fit by
// construction. On a memory-carrying machine (MemState with TotalMem > 0)
// the profile tracks both dimensions; otherwise it is the scalar skyline.
func (pl *planner) fill(st State, est Estimator, now int64) *cluster.VecProfile {
	running := st.Running()
	_, memTotal := MemOf(st)
	pl.spans = pl.spans[:0]
	for _, r := range running {
		end := r.Start + est.Estimate(r.Job)
		if end <= now {
			end = now + 1
		}
		pl.spans = append(pl.spans, cluster.Span{End: end, Procs: r.Job.Procs, Mem: memDemand(r.Job, memTotal)})
	}
	pl.prof.ResetSpans(st.TotalProcs(), memTotal, now, pl.spans)
	return &pl.prof
}

// basePlan places the head and then every queued job in order under a
// checkpoint, recording each base start, and rolls the profile back. A
// failed reservation aborts the round. On success it also fills the suffix
// minima of the base starts that the trial fast path keys on.
func (pl *planner) basePlan(p *cluster.VecProfile, est Estimator, now int64, head *trace.Job, queue []*trace.Job) bool {
	pl.plan = pl.plan[:0]
	mark := p.Checkpoint()
	err := pl.placeBase(p, est, now, head)
	for i := 0; err == nil && i < len(queue); i++ {
		err = pl.placeBase(p, est, now, queue[i])
	}
	p.Rollback(mark)
	if err != nil {
		return false
	}
	n := len(pl.plan)
	if cap(pl.sufMin) < n+1 {
		pl.sufMin = make([]int64, n+1)
	}
	pl.sufMin = pl.sufMin[:n+1]
	pl.sufMin[n] = math.MaxInt64
	for i := n - 1; i >= 0; i-- {
		pl.sufMin[i] = min(pl.plan[i].start, pl.sufMin[i+1])
	}
	return true
}

// placeBase reserves j at its earliest start and records the placement, even
// when the reservation fails; it returns the reservation's error.
func (pl *planner) placeBase(p *cluster.VecProfile, est Estimator, now int64, j *trace.Job) error {
	dur := est.Estimate(j)
	s := p.FindStart(now, dur, j.Procs, j.Mem)
	pl.plan = append(pl.plan, planEntry{job: j, dur: dur, start: s})
	return p.ReserveFound(s, s+dur, j.Procs, j.Mem)
}

// trial re-places every planned job except plan[ci] (the candidate, already
// reserved at [now, candEnd)) and reports whether everyone still starts by
// its base start. It aborts on the first violation — the verdict is already
// decided.
//
// Fast path: while every re-placed job has landed exactly on its base start
// AND the loop has not yet passed the candidate's own slot, the trial
// profile differs from the base profile only by the candidate's reservation
// over [now, candEnd). A job whose base window starts at or after candEnd is
// then disjoint from that difference, so it is (a) still feasible at its
// base start and (b) cannot start earlier (the trial profile is pointwise no
// freer elsewhere) — it re-places exactly at base with no search. Past the
// candidate's slot the trial profile also lacks the candidate's base
// reservation, which can open earlier holes and cascade, so every later job
// gets a full search. When the candidate is the final slot and the whole
// remaining suffix is disjoint (sufMin), the trial is accepted outright.
func (pl *planner) trial(p *cluster.VecProfile, now int64, ci int, candEnd int64) bool {
	exact := true
	last := len(pl.plan) - 1
	for i := range pl.plan {
		if i == ci {
			continue
		}
		e := &pl.plan[i]
		if exact && i < ci {
			if ci == last && pl.sufMin[i] >= candEnd {
				return true
			}
			if e.start >= candEnd {
				if p.ReserveFound(e.start, e.start+e.dur, e.job.Procs, e.job.Mem) != nil {
					return false
				}
				continue
			}
		}
		s := p.FindStart(now, e.dur, e.job.Procs, e.job.Mem)
		if s > e.start || p.ReserveFound(s, s+e.dur, e.job.Procs, e.job.Mem) != nil {
			return false
		}
		if s != e.start {
			exact = false
		}
	}
	return true
}

// backfillOne runs one conservative round: build the base profile, record
// the base plan, and start the first candidate whose immediate execution
// moves no other job's start later. Returns the started job, or nil.
func (pl *planner) backfillOne(st State, est Estimator, now int64, head *trace.Job, queue []*trace.Job) *trace.Job {
	p := pl.fill(st, est, now)
	if !pl.basePlan(p, est, now, head, queue) {
		return nil
	}
	free := st.FreeProcs()
	memFree, memTotal := MemOf(st)
	for ci := 1; ci < len(pl.plan); ci++ {
		cand := pl.plan[ci]
		if cand.job.Procs > free || memDemand(cand.job, memTotal) > memFree {
			continue
		}
		candEnd := now + cand.dur
		mark := p.Checkpoint()
		if err := p.Reserve(now, candEnd, cand.job.Procs, cand.job.Mem); err != nil {
			p.Rollback(mark)
			continue
		}
		ok := pl.trial(p, now, ci, candEnd)
		p.Rollback(mark)
		if ok {
			st.StartJob(cand.job)
			return cand.job
		}
	}
	return nil
}

// removeStarted drops a started job from the local queue view between
// rounds.
func removeStarted(queue []*trace.Job, started *trace.Job) []*trace.Job {
	out := queue[:0]
	for _, j := range queue {
		if j != started {
			out = append(out, j)
		}
	}
	return out
}
