package backfill

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// RepairRound reports how c's last plan build used the plan before it: the
// placements that took their old start as a hint, and whether the gain list
// outgrew gainCap, so that the rest of the build placed from the floor. A
// carried round builds nothing and leaves both as they were.
func RepairRound(c *Conservative) (hinted int, capped bool) {
	return c.fix.used, c.fix.used > 0 && len(c.fix.gain) > gainCap
}

// StartBehind reports whether a live entry of c's plan starts before now.
func StartBehind(c *Conservative, now int64) bool {
	if c.est == nil {
		return false
	}
	return slices.ContainsFunc(c.pl.plan[c.lo:], func(e planEntry) bool { return e.job != nil && e.start < now })
}

// PlanDiff compares c's plan with one built from scratch for st's running
// set and head + queue, and describes the first difference: an entry's
// job, estimate or start, or the free processors (or memory) of the two
// skylines at any instant from now on. It returns "" when they agree or
// when c holds no plan (its last build failed). A skyline is piecewise
// constant and changes only at its own boundaries, which for a right plan
// are now and the starts and ends of its reservations and running spans;
// the two are compared at every such time of either plan, and c's must not
// dip between two consecutive ones.
func PlanDiff(c *Conservative, st State, head *trace.Job, queue []*trace.Job) string {
	if c.est == nil {
		return ""
	}
	now := st.Now()
	_, memTotal := MemOf(st)
	ref := &Conservative{Est: c.Est}
	if !ref.rebuild(st, now, memTotal, head, queue, false) {
		return "the plan from scratch fails, the carried one does not"
	}
	var live []planEntry
	for _, e := range c.pl.plan[c.lo:] {
		if e.job != nil {
			live = append(live, e)
		}
	}
	if len(live) != len(ref.pl.plan) {
		return fmt.Sprintf("%d live entries, %d from scratch", len(live), len(ref.pl.plan))
	}
	times := []int64{now}
	for k, e := range live {
		if w := ref.pl.plan[k]; e != w {
			return fmt.Sprintf("entry %d: job %d (%d s) at %d, from scratch job %d (%d s) at %d",
				k, e.job.ID, e.dur, e.start, w.job.ID, w.dur, w.start)
		}
		times = append(times, e.start, e.start+e.dur)
	}
	for _, s := range slices.Concat(c.pl.ends, ref.pl.ends) {
		times = append(times, s.at)
	}
	slices.Sort(times)
	times = slices.Compact(times)
	free := func(p *cluster.VecProfile, at int64) [2]int { return [2]int{p.FreeAt(at), p.FreeMemAt(at)} }
	for k, at := range times {
		if at < now {
			continue
		}
		got, want := free(&c.pl.prof, at), free(&ref.pl.prof, at)
		if got != want {
			return fmt.Sprintf("free (procs, mem) at %d: %v, from scratch %v", at, got, want)
		}
		end := int64(1 << 62)
		if k+1 < len(times) {
			end = times[k+1]
		}
		if c.pl.prof.MinFree(at, end) != got[0] || c.pl.prof.HasMem() && c.pl.prof.MinFreeMem(at, end) != got[1] {
			return fmt.Sprintf("the skyline dips inside [%d, %d)", at, end)
		}
	}
	return ""
}

// StartOf returns the start c's plan holds for j, if j is a live entry.
func StartOf(c *Conservative, j *trace.Job) (int64, bool) {
	if c.est == nil {
		return 0, false
	}
	for _, e := range c.pl.plan[c.lo:] {
		if e.job == j {
			return e.start, true
		}
	}
	return 0, false
}
