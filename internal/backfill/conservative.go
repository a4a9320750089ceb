package backfill

import (
	"slices"

	"repro/internal/trace"
)

// Conservative implements conservative backfilling (Mu'alem & Feitelson
// 2001), the classic related-work baseline (§5): every waiting job gets a
// reservation in a future availability profile, and a candidate may be
// backfilled only if starting it now delays no earlier reservation. It is
// stricter than EASY (which protects only the head job) and is used here as
// an ablation baseline rather than a paper table entry.
//
// With zero slip allowed, a candidate is admissible exactly when the base
// plan — head, then queue, each placed at its earliest start — already
// starts it now. Starting such a job turns its reservation into a running
// span over the same interval, so the next base plan is this one less the
// job: one plan answers every start in a round, and the plan carries into
// the next round for as long as the journal shows the world going by it
// (DESIGN.md §6).
//
// Scenario semantics come for free: the engine hands the queue over in
// scenario order (starving first, then priority tiers), the base plan
// reserves in that order so higher tiers hold earlier reservations, and
// zero slip already guarantees no reservation — starving or not — ever
// moves later. On memory-carrying machines every reservation spans both
// resource dimensions via the planner's vector profile.
type Conservative struct {
	Est Estimator

	// The carried plan: pl.prof holds every running job's span and every
	// planned job's reservation, pl.ends where each running span ends, and
	// pl.plan the placements in policy order.
	pl  planner
	at  Cursor    // the journal position the plan reflects
	est Estimator // what the plan was built with; nil = no plan
	mem int       // the memory total the plan was built with
	// Round scratch: the journal's starts and arrivals since at.
	started []Change
	arrived []*trace.Job
}

// NewConservative returns conservative backfilling with the given estimator.
func NewConservative(est Estimator) *Conservative { return &Conservative{Est: est} }

// Fresh implements Cloneable: same estimator, own scratch.
func (c *Conservative) Fresh() Backfiller { return &Conservative{Est: c.Est} }

// Name implements Backfiller.
func (c *Conservative) Name() string { return "CONS-" + c.Est.Name() }

// Backfill implements Backfiller. It carries the last round's plan forward
// when it can, rebuilds it otherwise, and starts every non-head job the plan
// places at now, in plan order. A plan whose reservations cannot all be made
// (a malformed state) starts nothing.
func (c *Conservative) Backfill(st State, head *trace.Job, queue []*trace.Job) {
	now := st.Now()
	_, memTotal := MemOf(st)
	if !c.carry(st, now, memTotal, head, queue) && !c.rebuild(st, now, memTotal, head, queue) {
		c.est = nil
		return
	}
	c.at = st.Journal().Cursor()
	for _, e := range c.pl.plan[1:] {
		if e.start == now {
			st.StartJob(e.job)
		}
	}
}

// rebuild plans from scratch: the running set's profile, then head and
// queue in order. It reports false when a reservation fails.
func (c *Conservative) rebuild(st State, now int64, memTotal int, head *trace.Job, queue []*trace.Job) bool {
	p := c.pl.fill(st, c.Est, now)
	c.pl.plan = c.pl.plan[:0]
	if c.pl.placeBase(p, c.Est, now, head) != nil {
		return false
	}
	for _, j := range queue {
		if c.pl.placeBase(p, c.Est, now, j) != nil {
			return false
		}
	}
	c.est, c.mem = comparableOrNil(c.Est), memTotal
	return true
}

// carry brings the last plan up to now from the journal, and reports false
// — leaving the plan for rebuild to overwrite — unless it then equals the
// plan a rebuild would make. That holds when, since the last round:
//   - every job that started is a planned one, at its planned start;
//   - every job that finished did so at the end of its span;
//   - no running job's span ends by now (a rebuild would move it to now+1);
//   - the plan less those starts, followed by the arrivals, is head + queue
//     job for job (cancels and reorders fail this), and no planned start has
//     fallen behind now (an engine runs a round at every planned start, but
//     a State need not).
//
// The profile then holds, from now on, exactly the running spans and the
// kept reservations, and greedy placement in the same order finds the same
// starts: a started job's reservation became a running span over the same
// interval, which only jobs planned before it see earlier, and they already
// fit beside it. The arrivals are placed at the tail.
func (c *Conservative) carry(st State, now int64, memTotal int, head *trace.Job, queue []*trace.Job) bool {
	if c.est == nil || c.Est != c.est || c.mem != memTotal {
		return false
	}
	changes, ok := st.Journal().Since(c.at)
	if !ok {
		return false
	}
	c.started, c.arrived = c.started[:0], c.arrived[:0]
	for _, ch := range changes {
		switch ch.Kind {
		case Started:
			c.started = append(c.started, ch)
			c.pl.ends = append(c.pl.ends, spanEnd{id: ch.Job.ID, end: ch.Time + c.Est.Estimate(ch.Job)})
		case Finished:
			if !c.finish(ch.Job.ID, ch.Time) {
				return false
			}
		case Arrived:
			c.arrived = append(c.arrived, ch.Job)
		}
	}
	for _, e := range c.pl.ends {
		if e.end <= now {
			return false
		}
	}
	n := len(queue) + 1 - len(c.arrived) // head + queue less the arrivals
	if n < 0 {
		return false
	}
	want := func(i int) *trace.Job {
		if i == 0 {
			return head
		}
		return queue[i-1]
	}
	kept := 0
	for _, e := range c.pl.plan {
		if kept < n && e.job == want(kept) && e.start >= now {
			c.pl.plan[kept] = e
			kept++
			continue
		}
		if !slices.Contains(c.started, Change{Kind: Started, Job: e.job, Time: e.start}) {
			return false
		}
	}
	if kept != n || len(c.pl.plan)-kept != len(c.started) {
		return false
	}
	for i, j := range c.arrived {
		if want(n+i) != j {
			return false
		}
	}
	c.pl.plan = c.pl.plan[:kept]
	p := &c.pl.prof
	p.Trim(now)
	for _, j := range c.arrived {
		if c.pl.placeBase(p, c.Est, now, j) != nil {
			return false
		}
	}
	return true
}

// finish drops a finished job's span end and reports whether the job
// finished exactly there.
func (c *Conservative) finish(id int, at int64) bool {
	ends := c.pl.ends
	k := slices.IndexFunc(ends, func(e spanEnd) bool { return e.id == id })
	if k < 0 || ends[k].end != at {
		return false
	}
	ends[k] = ends[len(ends)-1]
	c.pl.ends = ends[:len(ends)-1]
	return true
}
