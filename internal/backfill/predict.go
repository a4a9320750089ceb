package backfill

import "repro/internal/trace"

// PlannedStart is one waiting job's projected start time under the current
// availability profile.
type PlannedStart struct {
	Job   *trace.Job
	Start int64
}

// Predictor projects start times for a waiting queue from the running set's
// reservation profile — the serve daemon's "when will my job start?" answer.
// It reuses conservative backfilling's planner: the profile is rebuilt from
// the running jobs' estimated completions, then every queued job is placed
// greedily in the given order (FindStart + reserve), and each job's found
// start is its projection. For conservative backfilling with the same
// estimator and the engine's queue order this reproduces exactly the base
// plan the next backfill round will compute, so the projection is the
// authoritative reservation; for EASY it is the same profile-derived
// estimate conservative would give (EASY protects only the head, so jobs may
// in fact start earlier). A failed reservation is ignored rather than
// aborting: an over-full profile records the found start, so malformed
// states still get an answer. A Predictor reuses its scratch across calls
// and is not goroutine-safe.
type Predictor struct {
	pl planner
}

// Project appends one PlannedStart per queued job (in queue order) to out
// and returns it. The queue must be in scheduling order — head first — as
// Engine.AppendQueued yields it; an empty queue appends nothing.
func (pr *Predictor) Project(st State, est Estimator, queue []*trace.Job, out []PlannedStart) []PlannedStart {
	if len(queue) == 0 {
		return out
	}
	now := st.Now()
	p := pr.pl.fill(st, est, now)
	pr.pl.plan = pr.pl.plan[:0]
	for _, j := range queue {
		_ = pr.pl.placeBase(p, est, now, j)
	}
	for _, e := range pr.pl.plan {
		out = append(out, PlannedStart{Job: e.job, Start: e.start})
	}
	return out
}
