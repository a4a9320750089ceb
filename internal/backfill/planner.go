package backfill

import (
	"math"
	"math/bits"

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
	ends  slots       // where each running job's span ends: (end, job ID)
	plan  []planEntry // in policy order: head first, then queue
	floor floors      // the latest start placed per bucket since fill
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
		pl.ends = append(pl.ends, slot{at: end, n: r.Job.ID})
	}
	pl.prof.ResetSpans(st.TotalProcs(), memTotal, now, pl.spans)
	pl.floor = noFloors
	return &pl.prof
}

// placeBase reserves j at its earliest start and records the placement, even
// when the reservation fails; it returns the reservation's error. On a
// procs-only profile the search starts at the dominance floor, not at now:
// since fill the profile has only lost capacity, so j cannot start before a
// job placed since then that is no wider and no longer (DESIGN.md §9).
func (pl *planner) placeBase(p *cluster.VecProfile, est Estimator, now int64, j *trace.Job) error {
	dur := est.Estimate(j)
	return pl.reserve(p, j, dur, p.FindStart(pl.after(p, now, j.Procs, dur), dur, j.Procs, j.Mem))
}

// placeHinted is placeBase for a job of the last plan, entry e, on a
// procs-only profile: it finds the same start from e's old one, walking the
// skyline only where capacity came back (DESIGN.md §9). Any start before
// e.start that fits now but did not fit in the last build has a window that
// meets fix.gain, so only the starts whose windows do are walked; when none
// of them fits, e.start still fits unless its window meets fix.loss and
// MinFree says so, and otherwise the answer is the first fit after it. A
// move is recorded in fix: the old slot as gain, the new one as loss.
func (pl *planner) placeHinted(p *cluster.VecProfile, now int64, e planEntry, fix *repair) error {
	j, d, s := e.job, e.dur, e.start
	from, start := pl.after(p, now, j.Procs, d), s
	for _, g := range fix.gain {
		lo, hi := max(from, g.lo-d+1), min(g.hi, s)
		if lo >= s {
			break
		}
		if lo >= hi {
			continue
		}
		if from = p.FindStartBefore(lo, hi, d, j.Procs, j.Mem); from < hi {
			start = from
			break
		}
	}
	if start == s && fix.loss.meets(s, s+d) && p.MinFree(s, s+d) < j.Procs {
		start = p.FindStart(max(s, from), d, j.Procs, j.Mem)
	}
	if start != s {
		fix.gain.add(s, s+d)
		fix.loss.add(start, start+d)
	}
	return pl.reserve(p, j, d, start)
}

// after returns where a walk for a procs x dur job may start: the dominance
// floor on a procs-only profile, now otherwise.
func (pl *planner) after(p *cluster.VecProfile, now int64, procs int, dur int64) int64 {
	b, k := bucket(int64(procs), len(pl.floor)), bucket(dur, len(pl.floor[0]))
	if p.HasMem() || b == 0 || k == 0 {
		return now
	}
	return max(now, pl.floor[b-1][k-1])
}

// reserve places j at s: it raises the floor of j's bucket, records the
// placement and reserves it, returning the reservation's error.
func (pl *planner) reserve(p *cluster.VecProfile, j *trace.Job, dur, s int64) error {
	b, k := bucket(int64(j.Procs), len(pl.floor)), bucket(dur, len(pl.floor[0]))
	pl.floor[b][k] = max(pl.floor[b][k], s)
	pl.plan = append(pl.plan, planEntry{job: j, dur: dur, start: s})
	return p.ReserveFound(s, s+dur, j.Procs, j.Mem)
}

// floors holds, per (procs, duration) bucket, the latest start placed in it
// since the last fill. Buckets are log₂ of the value (0 for values <= 0, the
// last bucket open-ended), so a job in the bucket below on both axes is no
// wider and no longer, also after FindStart clamps the width to the machine
// and the duration to at least 1. Memory is not bucketed: on a memory
// machine the floor stays at now.
type floors [16][24]int64

// noFloors is the table of an empty build: every cell math.MinInt64.
var noFloors = func() (f floors) {
	for i := range f {
		for k := range f[i] {
			f[i][k] = math.MinInt64
		}
	}
	return f
}()

// bucket returns x's log₂ bucket of n: 0 for x <= 0, bits.Len(x) capped at
// n-1 otherwise. It never decreases as x grows.
func bucket(x int64, n int) int {
	if x <= 0 {
		return 0
	}
	return min(bits.Len64(uint64(x)), n-1)
}
