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
// (DESIGN.md §6). A carried round costs O(changes since the last round):
// it reads the journal, the head and the arrivals at the queue's tail, and
// trusts the journal for the rest of the queue, which changes only through
// journaled starts, arrivals, cancels and reorders; a reordered round also
// compares the plan with the queue, job for job.
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
	// planned job's reservation, pl.ends is a heap on (end, job ID) of where
	// each running span ends, and pl.plan the placements in policy order.
	// A started job's entry stays as a tombstone (a nil job): plan[lo] is
	// the first live entry, and dead counts the tombstones after it. When
	// indexed, starts is a heap on (planned start, plan position) over the
	// entries, from which tombstones are deleted when they reach the top. A
	// rebuild leaves it unbuilt for the next carry to build: under early
	// finishes and mid-queue arrivals most rebuilt plans are rebuilt again
	// in the next round.
	pl       planner
	lo, dead int
	starts   slots
	indexed  bool
	at       Cursor    // the journal position the plan reflects
	est      Estimator // what the plan was built with; nil = no plan
	mem      int       // the memory total the plan was built with
	// Round scratch: the journal's starts after a reorder, and its
	// arrivals, since at.
	started []Change
	arrived []*trace.Job
	// What a rebuild after early finishes takes from the last plan; its
	// hints hold the plan storage the rebuild does not build into.
	fix repair
}

// NewConservative returns conservative backfilling with the given estimator.
func NewConservative(est Estimator) *Conservative { return &Conservative{Est: est} }

// Fresh implements Cloneable: same estimator, own scratch.
func (c *Conservative) Fresh() Backfiller { return &Conservative{Est: c.Est} }

// Name implements Backfiller.
func (c *Conservative) Name() string { return "CONS-" + c.Est.Name() }

// Backfill implements Backfiller. It carries the last round's plan forward
// when it can, rebuilds it otherwise, and starts every non-head job the plan
// places at now, in plan order, filing each start in the plan itself; the
// cursor is taken after them, so the next round does not read them back. A
// plan whose reservations cannot all be made (a malformed state) starts
// nothing. The queue must be the state's waiting queue (less the head).
func (c *Conservative) Backfill(st State, head *trace.Job, queue []*trace.Job) {
	now := st.Now()
	_, memTotal := MemOf(st)
	carried, hinted := c.carry(st, now, memTotal, head, queue)
	if !carried && !c.rebuild(st, now, memTotal, head, queue, hinted) {
		c.est = nil
		return
	}
	// The entries due now start in plan order, all but the head's (due
	// only on a state that did not start it): off the index, whose head
	// entry goes back, or after a rebuild by one pass over the plan.
	if !c.indexed {
		for i := c.lo + 1; i < len(c.pl.plan); i++ {
			if c.pl.plan[i].start == now {
				c.start(st, i, now)
			}
		}
	} else {
		headDue := false
		for {
			s, ok := c.next()
			if !ok || s.at != now {
				break
			}
			c.starts.pop()
			if s.n == c.lo {
				headDue = true
				continue
			}
			c.start(st, s.n, now)
		}
		if headDue {
			c.starts.push(slot{at: now, n: c.lo})
		}
	}
	c.at = st.Journal().Cursor()
	if live := len(c.pl.plan) - c.lo - c.dead; c.lo+c.dead > live {
		c.compact()
	}
}

// rebuild plans from scratch: the running set's profile, then head and
// queue in order. It reports false when a reservation fails. With hinted
// (carry saw early finishes, DESIGN.md §9), the last plan's live entries
// are head + queue less the arrivals, and each of them is placed from its
// old start (placeHinted) until the first that is not, or that started
// behind now, or until the gain list outgrows gainCap; the rest take
// placeBase. The last plan's storage becomes the hints, the hints' the
// new plan's, so the swap allocates nothing.
func (c *Conservative) rebuild(st State, now int64, memTotal int, head *trace.Job, queue []*trace.Job, hinted bool) bool {
	p := c.pl.fill(st, c.Est, now)
	f := &c.fix
	f.hints, c.pl.plan = c.pl.plan, f.hints[:0]
	f.next, f.used = c.lo, 0
	if !hinted {
		f.next = len(f.hints)
	}
	c.lo, c.dead = 0, 0
	for i := 0; i <= len(queue); i++ {
		j := nth(head, queue, i)
		var err error
		if e, ok := f.take(j, now); ok {
			err = c.pl.placeHinted(p, now, e, f)
		} else {
			err = c.pl.placeBase(p, c.Est, now, j)
		}
		if err != nil {
			return false
		}
	}
	c.pl.ends.heapify()
	c.indexed = false
	c.est, c.mem = comparableOrNil(c.Est), memTotal
	return true
}

// carry brings the last plan up to now from the journal, and reports false
// — leaving the plan for rebuild to overwrite — unless it then equals the
// plan a rebuild would make. When the only departures from the plan were
// early finishes and heads started off their planned start, it also
// reports that the rebuild may take the plan's starts as hints: on a
// procs-only machine, when every other condition below holds, with the
// repair's lists seeded (each early finish's [now, planned end) and each
// such head's planned slot as gain, the head's running span as loss). The
// plan carries when, since the last round:
//   - every job that started is a planned one, at its planned start: until
//     the first reorder, the first live entry (the queue's head);
//   - every job that finished did so at the end of its span, which is then
//     the top of the span-end heap (the engine finishes the jobs of one
//     instant in ID order);
//   - no running job's span ends by now (a rebuild would move it to now+1);
//   - nothing was canceled, the live plan has one entry per job of head +
//     queue that did not arrive, the head is its first, and the arrivals
//     are the tail of head + queue in journal order; after a reorder the
//     live plan is head + queue less the arrivals, job for job;
//   - no planned start has fallen behind now (an engine runs a round at
//     every planned start, but a State need not).
//
// The profile then holds, from now on, exactly the running spans and the
// kept reservations, and greedy placement in the same order finds the same
// starts: a started job's reservation became a running span over the same
// interval, which only jobs planned before it see earlier, and they already
// fit beside it. The arrivals are placed at the tail.
func (c *Conservative) carry(st State, now int64, memTotal int, head *trace.Job, queue []*trace.Job) (carried, hinted bool) {
	if c.est == nil || c.Est != c.est || c.mem != memTotal {
		return false, false
	}
	changes, ok := st.Journal().Since(c.at)
	if !ok {
		return false, false
	}
	ends, fix := &c.pl.ends, &c.fix
	fix.gain, fix.loss = fix.gain[:0], fix.loss[:0]
	reordered, moved := false, false
	c.started, c.arrived = c.started[:0], c.arrived[:0]
	for _, ch := range changes {
		switch ch.Kind {
		case Started:
			if reordered {
				c.started = append(c.started, ch)
			} else if ok, off := c.startHead(ch); !ok {
				return false, false
			} else {
				moved = moved || off
			}
			ends.push(slot{at: ch.Time + c.Est.Estimate(ch.Job), n: ch.Job.ID})
		case Finished:
			if len(*ends) > 0 && (*ends)[0] == (slot{at: ch.Time, n: ch.Job.ID}) {
				ends.pop()
				continue
			}
			// Off the heap's top: an early finish gives [now, end) back. A
			// late one, or one of no span, is past what the repair covers.
			end, ok := ends.remove(ch.Job.ID)
			if !ok || end < ch.Time {
				return false, false
			}
			fix.gain.add(now, end)
			moved = true
		case Arrived:
			c.arrived = append(c.arrived, ch.Job)
		case Reordered:
			reordered = true
		default:
			return false, false
		}
	}
	if len(*ends) > 0 && (*ends)[0].at <= now {
		return false, false
	}
	n := len(queue) + 1 - len(c.arrived) // head + queue less the arrivals
	if n < 0 {
		return false, false
	}
	if reordered {
		if moved || !c.reorder(head, queue, n) {
			return false, false
		}
	} else if len(c.pl.plan)-c.lo-c.dead != n || n > 0 && c.pl.plan[c.lo].job != head {
		return false, false
	}
	for i, j := range c.arrived {
		if nth(head, queue, n+i) != j {
			return false, false
		}
	}
	if moved {
		return false, memTotal == 0
	}
	if !c.indexed {
		c.index()
	}
	if s, ok := c.next(); ok && s.at < now {
		return false, false
	}
	p := &c.pl.prof
	p.Trim(now)
	for _, j := range c.arrived {
		if c.pl.placeBase(p, c.Est, now, j) != nil {
			return false, false
		}
		k := len(c.pl.plan) - 1
		c.starts.push(slot{at: c.pl.plan[k].start, n: k})
	}
	return true, false
}

// startHead files a start made before any reorder, which must be the first
// live entry's. It reports whether the start was off the plan (the engine
// started the head before its planned start); such a head's planned slot
// goes into the repair's gain and its running span into its loss.
func (c *Conservative) startHead(ch Change) (ok, off bool) {
	if c.lo == len(c.pl.plan) {
		return false, false
	}
	e := c.pl.plan[c.lo]
	if e.job != ch.Job {
		return false, false
	}
	if off = e.start != ch.Time; off {
		c.fix.gain.add(e.start, e.start+e.dur)
		c.fix.loss.add(ch.Time, ch.Time+e.dur)
	}
	c.drop(c.lo)
	return true, off
}

// reorder compares the live plan with the first n jobs of head + queue (the
// jobs that did not arrive), in order, and files the starts made since a
// reorder: every live entry off that order must be one of them, at its
// planned start.
func (c *Conservative) reorder(head *trace.Job, queue []*trace.Job, n int) bool {
	kept, filed := 0, 0
	for i := c.lo; i < len(c.pl.plan); i++ {
		e := c.pl.plan[i]
		switch {
		case e.job == nil:
		case kept < n && e.job == nth(head, queue, kept):
			kept++
		case slices.Contains(c.started, Change{Kind: Started, Job: e.job, Time: e.start}):
			c.drop(i)
			filed++
		default:
			return false
		}
	}
	return kept == n && filed == len(c.started)
}

// nth returns job i of head + queue.
func nth(head *trace.Job, queue []*trace.Job, i int) *trace.Job {
	if i == 0 {
		return head
	}
	return queue[i-1]
}

// next returns the index's live top — the earliest planned start, first in
// plan order — popping the tombstones above it.
func (c *Conservative) next() (slot, bool) {
	for len(c.starts) > 0 {
		s := c.starts[0]
		if c.pl.plan[s.n].job != nil {
			return s, true
		}
		c.starts.pop()
	}
	return slot{}, false
}

// drop turns plan[i] into a tombstone.
func (c *Conservative) drop(i int) {
	c.pl.plan[i].job = nil
	c.dead++
	for c.lo < len(c.pl.plan) && c.pl.plan[c.lo].job == nil {
		c.lo++
		c.dead--
	}
}

// compact moves the live entries to the front of the plan and re-indexes
// them; Backfill runs it once tombstones outnumber live entries, so its
// cost is paid for by the starts that made them.
func (c *Conservative) compact() {
	plan := c.pl.plan
	w := 0
	for _, e := range plan[c.lo:] {
		if e.job != nil {
			plan[w] = e
			w++
		}
	}
	clear(plan[w:])
	c.pl.plan, c.lo, c.dead = plan[:w], 0, 0
	c.index()
}

// index builds the start index over the plan's live entries.
func (c *Conservative) index() {
	c.starts = c.starts[:0]
	for i := c.lo; i < len(c.pl.plan); i++ {
		if c.pl.plan[i].job != nil {
			c.starts = append(c.starts, slot{at: c.pl.plan[i].start, n: i})
		}
	}
	c.starts.heapify()
	c.indexed = true
}

// start starts plan[i] at now and files it: its span on the end heap, its
// entry a tombstone.
func (c *Conservative) start(st State, i int, now int64) {
	e := &c.pl.plan[i]
	st.StartJob(e.job)
	c.pl.ends.push(slot{at: now + e.dur, n: e.job.ID})
	c.drop(i)
}

// slot is an entry of the carried plan's two heaps, ordered on (at, n): a
// running span's end and its job's ID, or a planned start and its plan
// position.
type slot struct {
	at int64
	n  int
}

func (a slot) less(b slot) bool { return a.at < b.at || a.at == b.at && a.n < b.n }

// slots is a binary min-heap of slots.
type slots []slot

func (h *slots) push(x slot) {
	*h = append(*h, x)
	h.up(len(*h) - 1)
}

// remove deletes the slot with n == id and returns its time; it scans the
// heap, so it serves the rare early finish, not the filed one.
func (h *slots) remove(id int) (int64, bool) {
	s := *h
	for i, x := range s {
		if x.n != id {
			continue
		}
		last := len(s) - 1
		s[i] = s[last]
		*h = s[:last]
		if i < last {
			h.down(i)
			h.up(i)
		}
		return x.at, true
	}
	return 0, false
}

func (s slots) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].less(s[p]) {
			return
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes the top.
func (h *slots) pop() {
	s := *h
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	s.down(0)
	*h = s
}

func (s slots) heapify() {
	for i := len(s)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
}

func (s slots) down(i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(s) && s[l].less(s[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(s) && s[r].less(s[m]) {
			m = r
		}
		if m == i {
			return
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// repair is what a rebuild takes from the last plan when the journal shows
// early finishes (DESIGN.md §9): the last plan's entries, hints[next:] not
// yet placed, and two window lists against the last build. gain holds every
// interval where the build so far can have more capacity than the last
// build had at the same point, loss every interval where it can have less.
// used counts the placements that took their hint.
type repair struct {
	hints      []planEntry
	next, used int
	gain, loss windows
}

// gainCap bounds the gain list: once it holds more windows, the rest of the
// build places from the floor. 8 to 32 measured alike; 128 and 512 slower.
const gainCap = 16

// take returns the hint for j, the build's next job, and false once the
// rest of the build must take placeBase: j is not the last plan's next live
// entry (an arrival), its old start is behind now, or gain is over its cap.
func (f *repair) take(j *trace.Job, now int64) (planEntry, bool) {
	for f.next < len(f.hints) && f.hints[f.next].job == nil {
		f.next++
	}
	if f.next == len(f.hints) {
		return planEntry{}, false
	}
	e := f.hints[f.next]
	if e.job != j || e.start < now || len(f.gain) > gainCap {
		f.next = len(f.hints)
		return planEntry{}, false
	}
	f.next++
	f.used++
	return e, true
}

// window is the interval [lo, hi).
type window struct{ lo, hi int64 }

// windows is a sorted list of disjoint windows, no two touching.
type windows []window

// add merges [lo, hi) into the list.
func (ws *windows) add(lo, hi int64) {
	if hi <= lo {
		return
	}
	s := *ws
	i := s.first(lo - 1) // the first window that meets or touches [lo, hi)
	k := i
	for ; k < len(s) && s[k].lo <= hi; k++ {
		lo, hi = min(lo, s[k].lo), max(hi, s[k].hi)
	}
	*ws = slices.Replace(s, i, k, window{lo, hi})
}

// meets reports whether [lo, hi) overlaps a window of the list.
func (ws windows) meets(lo, hi int64) bool {
	i := ws.first(lo)
	return i < len(ws) && ws[i].lo < hi
}

// first returns the index of the first window that ends after t.
func (ws windows) first(t int64) int {
	lo, hi := 0, len(ws)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ws[mid].hi <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
