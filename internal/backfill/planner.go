package backfill

import (
	"repro/internal/cluster"
	"repro/internal/trace"
)

// planEntry is one job's base placement: its runtime estimate and the start
// FindStart assigned it under the profile of the running set and every job
// placed before it.
type planEntry struct {
	job   *trace.Job
	dur   int64
	start int64
}

// planner is the plan machinery shared by conservative backfilling and the
// Predictor: an availability profile built from the running set in one bulk
// ResetSpans sweep, and every waiting job placed on it in order at its
// earliest start (DESIGN.md §9). All storage is reused across calls; a
// planner is not goroutine-safe (backfillers are cloned per worker, see
// Cloneable).
type planner struct {
	prof  cluster.VecProfile
	spans []cluster.Span
	ends  []spanEnd   // the running jobs' span ends, as fill laid them out
	plan  []planEntry // in policy order: head first, then queue
}

// spanEnd is where a running job's span ends in the profile.
type spanEnd struct {
	id  int
	end int64
}

// runningEnd is the end of a running job's span in the profile: its
// estimated completion, or now + 1 for a job that has outlived its estimate
// (it is assumed to release imminently).
func runningEnd(r Running, est Estimator, now int64) int64 {
	return max(r.Start+est.Estimate(r.Job), now+1)
}

// fill resets the profile to the availability implied by the running jobs'
// spans (runningEnd), and records where each span ends. Running jobs always
// fit by construction. On a
// memory-carrying machine (MemState with TotalMem > 0) the profile tracks
// both dimensions; otherwise it is the scalar skyline.
func (pl *planner) fill(st State, est Estimator, now int64) *cluster.VecProfile {
	_, memTotal := MemOf(st)
	pl.spans, pl.ends = pl.spans[:0], pl.ends[:0]
	for _, r := range st.Running() {
		end := runningEnd(r, est, now)
		pl.spans = append(pl.spans, cluster.Span{End: end, Procs: r.Job.Procs, Mem: memDemand(r.Job, memTotal)})
		pl.ends = append(pl.ends, spanEnd{id: r.Job.ID, end: end})
	}
	pl.prof.ResetSpans(st.TotalProcs(), memTotal, now, pl.spans)
	return &pl.prof
}

// placeBase reserves j at its earliest start and records the placement, even
// when the reservation fails; it returns the reservation's error.
func (pl *planner) placeBase(p *cluster.VecProfile, est Estimator, now int64, j *trace.Job) error {
	dur := est.Estimate(j)
	s := p.FindStart(now, dur, j.Procs, j.Mem)
	pl.plan = append(pl.plan, planEntry{job: j, dur: dur, start: s})
	return p.ReserveFound(s, s+dur, j.Procs, j.Mem)
}
