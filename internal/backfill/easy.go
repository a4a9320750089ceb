package backfill

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/sched"
	"repro/internal/trace"
)

// CandidateOrder selects the order in which EASY scans backfill candidates.
type CandidateOrder int

const (
	// PolicyOrder keeps the base scheduling policy's queue order (classic
	// EASY behaviour).
	PolicyOrder CandidateOrder = iota
	// SJFOrder scans shortest-estimate-first. The paper's reward baseline
	// (§3.4) is FCFS scheduling with SJF-ordered backfilling.
	SJFOrder
)

// EASY implements aggressive (single-reservation) EASY backfilling (Lifka
// 1995, §2.1.3 of the paper): when the head job cannot start, compute its
// reservation and start any later job that fits the free processors and
// either finishes (per the estimator) before the shadow time or only uses
// the extra processors. The state's scenario layers priority tiers and the
// starvation bound onto the scan: with aging on, every starving queued job's
// reservation becomes blocking (kube-batch StarvationThreshold semantics) — a
// candidate must respect the head's AND every starving job's shadow/extra.
// The zero scenario reproduces classic EASY exactly.
type EASY struct {
	// Est supplies predicted runtimes for both the reservation and the
	// candidate-fit test. RequestTime{} gives plain EASY; ActualRuntime{}
	// gives the paper's EASY-AR; Noisy{...} gives Figure 1's error sweep.
	Est Estimator
	// Order controls candidate scan order (PolicyOrder by default).
	Order CandidateOrder

	// Reusable scratch: EASY runs on every blocked scheduling event, so the
	// candidate decoration and reservation buffers are kept across calls,
	// as are the live list and the last round's verdict.
	res   ReservationScratch
	cands []estimated
	prots []protection
	live  []listed
	last  verdict
}

// estimated decorates a candidate with its runtime estimate (and, when a
// scenario is active, its scan-order keys), computed once per backfill round
// rather than per comparison and again per scan.
type estimated struct {
	job      *trace.Job
	est      int64
	starving bool
	pri      int32
}

// protection is one starving job's blocking reservation during a round.
type protection struct {
	job *trace.Job
	res Reservation
}

// listed is one candidate as the scan tests it, and one live-list entry: the
// job with its estimate (0 until estimated; every estimate is at least 1),
// processors and memory demand.
type listed struct {
	job   *trace.Job
	est   int64
	procs int
	mem   int
}

// verdict is what the last round leaves behind. With aging off, every queued
// job it did not start failed against free resources, the head's reservation
// and now. Until the journal shows a start or a finish, the free resources
// and the running set — hence the reservation — stay as they were, except
// that a shadow behind now is clamped up to it; and now only grows, so every
// job that failed still fails, and only arrivals need a test. The cached
// reservation of a round that started nothing answers that test exactly:
// every estimate is at least 1, so a job starting now ends after now and
// fails a shadow clamped to now just as it fails one left behind. A round
// that started jobs caches none: its in-round Extra can be more permissive
// than a fresh one (a backfilled job that ends exactly at the shadow, and
// whose ID sorts after the job that set it, lowers the fresh Extra); a fresh
// reservation has the same shadow and an Extra no larger, so every job that
// failed still fails. Cancels and reorders only remove or move candidates,
// and another head drops the verdict.
//
// In policy order a round also keeps the live list (EASY.live): every job it
// left waiting with an estimate within the horizon (shadow − now) or no
// wider than the cap (the head's fresh Extra), in queue order, so every
// waiting job off the list fails both EASY tests. Finishes only add
// processors and memory to every instant of the availability profile, so
// the shadow only moves earlier and the horizon only shrinks; a round whose
// journal shows only finishes and tail arrivals therefore tests the list,
// the pending jobs and the arrivals, unless a job that finished before its
// estimate raised the fresh Extra past the cap. A rescan checks the cap
// only when a job off the list fits the free processors (narrowest): else
// none of them can start, whatever the extra, and the bounds stay as they
// are. A round that stops at a full machine leaves the rest of the queue
// pending, and the next round scans it like arrivals. A cancel or a reorder
// drops the list.
type verdict struct {
	at        Cursor // the journal position after the round's own starts; zero = no verdict
	head      *trace.Job
	est       Estimator
	memTotal  int
	res       Reservation // the head's, when a round that started nothing computed it
	haveRes   bool
	listed    bool  // EASY.live holds the list
	horizon   int64 // the list's bounds: shadow − now and Extra when they were last tightened
	cap       int
	narrowest int // no job off the list needs fewer processors
	pending   int // the jobs before the arrivals that no round has classified
}

// NewEASY returns EASY backfilling with the given estimator and the classic
// policy-order candidate scan.
func NewEASY(est Estimator) *EASY { return &EASY{Est: est} }

// Fresh implements Cloneable: same configuration, own scratch.
func (e *EASY) Fresh() Backfiller { return &EASY{Est: e.Est, Order: e.Order} }

// Name implements Backfiller.
func (e *EASY) Name() string {
	n := "EASY-" + e.Est.Name()
	if e.Order == SJFOrder {
		n += "-SJF"
	}
	return n
}

// Backfill implements Backfiller. A round returns at once when the machine
// is full. In policy order with aging off, candidates are read straight off
// the queue, and the round files the jobs it leaves waiting that could still
// start under this head on the live list; a later round that follows only
// finishes and tail arrivals scans the list and then the jobs no round has
// classified yet. Otherwise (SJF order, aging, a reordered queue) the head's
// reservation is computed when the first candidate that fits the free
// resources appears, candidates are estimated once they fit, and no list is
// kept. While the last round's verdict holds, a round that follows only
// arrivals scans just the unclassified jobs (resume). The queue must be the
// state's waiting queue (less the head), which changes only through
// journaled starts, arrivals, cancels and reorders.
func (e *EASY) Backfill(st State, head *trace.Job, queue []*trace.Job) {
	free := st.FreeProcs()
	if free == 0 {
		return
	}
	now := st.Now()
	memFree, memTotal := MemOf(st)
	scn := st.Scenario()
	from, rescan, reordered := e.resume(st, head, queue, memTotal, scn.Aging())
	v := &e.last
	res, haveRes := v.res, v.haveRes

	// The list is kept in policy order with aging off, unless the queue was
	// just reordered; a round resumed at the arrivals extends a list it has
	// and builds none. A full round, and a rescan when a job off the list
	// fits the free processors, check the bounds against the fresh
	// reservation and tighten them; any other round keeps them, which
	// files a superset.
	file := e.Order == PolicyOrder && !scn.Aging() && !reordered && (from == 0 || v.listed)
	var relist []listed
	w := 0 // the list is e.live[:w], followed by relist[i:] while it is rescanned
	if file {
		if rescan {
			relist = e.live
		} else if v.listed {
			w = len(e.live)
		}
		if from == 0 || rescan && free >= v.narrowest {
			if !haveRes {
				res, haveRes = e.res.Compute(st, head, e.Est), true
			}
			if rescan && res.Extra > v.cap {
				from = 0 // jobs off the list may now use the extra processors
			}
			if from == 0 {
				relist, w, v.narrowest = nil, 0, math.MaxInt
			}
			v.horizon, v.cap = res.Shadow-now, res.Extra
		}
	}
	horizon, capProcs := v.horizon, v.cap
	queue = queue[from:]

	// With aging on, every starving queued job gets its own blocking
	// reservation, computed EASY-style against the running set. Candidates
	// must then clear the head's shadow AND every starving job's.
	e.prots = e.prots[:0]
	if scn.Aging() {
		for _, j := range queue {
			if scn.Starving(j, now) {
				e.prots = append(e.prots, protection{job: j, res: e.res.Compute(st, j, e.Est)})
			}
		}
	}

	// The scan runs over the list (when rescanned), then the queue; in SJF
	// order only the jobs that fit at round start are decorated and sorted.
	sorted := e.Order == SJFOrder
	nl := len(relist)
	n := nl + len(queue)
	var cands []estimated
	if sorted {
		cands = e.sjfOrder(queue, scn, now, free, memFree, memTotal)
		n = len(cands)
	}

	started := false
	i := 0
	for ; i < n && free > 0; i++ {
		var c listed
		switch {
		case i < nl:
			c = relist[i]
		case sorted:
			c.job, c.est = cands[i].job, cands[i].est
			c.procs, c.mem = c.job.Procs, memDemand(c.job, memTotal)
		default:
			c.job = queue[i-nl]
			c.procs, c.mem = c.job.Procs, memDemand(c.job, memTotal)
		}
		j := c.job
		if c.procs <= free && c.mem <= memFree {
			if c.est == 0 {
				c.est = e.Est.Estimate(j)
			}
			if !haveRes {
				res, haveRes = e.res.Compute(st, head, e.Est), true
			}
			end := now + c.est
			endsByShadow := end <= res.Shadow
			if (endsByShadow || c.procs <= res.Extra && c.mem <= res.ExtraMem) && e.clears(j, end, c.procs, c.mem) {
				st.StartJob(j)
				started = true
				free -= c.procs
				memFree -= c.mem
				if !endsByShadow {
					// The job runs past the shadow time, so it permanently
					// consumes part of the head job's surplus.
					res.Extra -= c.procs
					res.ExtraMem -= c.mem
				}
				e.consume(j, end, c.procs, c.mem)
				continue
			}
		}
		if !file {
			continue
		}
		if c.procs > capProcs {
			if c.est == 0 {
				c.est = e.Est.Estimate(j)
			}
			if c.est > horizon {
				v.narrowest = min(v.narrowest, c.procs)
				continue // fails both tests under this head from now on
			}
		}
		if i >= nl {
			e.live = append(e.live[:w], c)
		} else if w != i {
			relist[w] = c
		}
		w++
	}
	if file {
		// A full machine ends the scan: the rest of the list stays on it,
		// and the rest of the queue is pending for the next round.
		if i < nl {
			w += copy(relist[w:], relist[i:])
			i = nl
		}
		e.live, v.pending = e.live[:w], n-i
	} else {
		v.pending = 0
	}
	v.at, v.head, v.est, v.memTotal = st.Journal().Cursor(), head, comparableOrNil(e.Est), memTotal
	v.listed = file
	v.res, v.haveRes = res, haveRes && !started
}

// clears reports whether a candidate ending at end respects every starving
// job's reservation but its own.
func (e *EASY) clears(j *trace.Job, end int64, procs, mem int) bool {
	for pi := range e.prots {
		p := &e.prots[pi]
		if p.job != j && end > p.res.Shadow && (procs > p.res.Extra || mem > p.res.ExtraMem) {
			return false
		}
	}
	return true
}

// consume updates the starving jobs' reservations for a job that started
// and ends at end: a starving job that started drops its own, and one whose
// shadow the job runs past loses the job's resources from its extra.
func (e *EASY) consume(j *trace.Job, end int64, procs, mem int) {
	for pi := 0; pi < len(e.prots); pi++ {
		p := &e.prots[pi]
		if p.job == j {
			e.prots = append(e.prots[:pi], e.prots[pi+1:]...)
			pi--
			continue
		}
		if end > p.res.Shadow {
			p.res.Extra -= procs
			p.res.ExtraMem -= mem
		}
	}
}

// resume reads the journal since the last round and returns where this
// round's scan of the queue starts, whether the live list is to be rescanned
// (finishes went by), and whether the segment shows a reorder. The verdict
// holds when aging is off, the head, estimator and memory switch are the
// same, the journal shows no start, and the arrivals sit at the queue's
// tail in journal order: the scan then starts at the pending jobs before
// them. A finish needs the list too; a cancel or a reorder drops it.
// Otherwise resume drops the verdict, and the scan starts at 0.
func (e *EASY) resume(st State, head *trace.Job, queue []*trace.Job, memTotal int, aging bool) (from int, rescan, reordered bool) {
	v := &e.last
	changes, ok := st.Journal().Since(v.at)
	q := len(queue)
	for k := len(changes) - 1; k >= 0; k-- {
		switch c := changes[k]; c.Kind {
		case Arrived:
			q--
			ok = ok && q >= 0 && queue[q] == c.Job
		case Finished:
			rescan = true
		case Reordered:
			reordered = true
			v.listed = false
		case Canceled:
			v.listed = false
		default:
			ok = false
		}
	}
	if ok && v.head == head && v.est != nil && e.Est == v.est && v.memTotal == memTotal && !aging && (v.listed || !rescan) {
		v.haveRes = v.haveRes && !rescan
		return max(q-v.pending, 0), rescan, reordered
	}
	*v = verdict{}
	return 0, false, reordered
}

// sjfOrder decorates the jobs that fit the free resources with their
// estimates (and, when a scenario is active, their scan-order keys), computed
// once per round rather than per comparison, and returns them
// shortest-estimate-first. Leaving out the jobs that do not fit is exact:
// free resources only fall within a round, so they never would.
func (e *EASY) sjfOrder(queue []*trace.Job, scn sched.Scenario, now int64, free, memFree, memTotal int) []estimated {
	scnOrder := scn.Enabled()
	cands := e.cands[:0]
	for _, j := range queue {
		if j.Procs > free || memDemand(j, memTotal) > memFree {
			continue
		}
		c := estimated{job: j, est: e.Est.Estimate(j)}
		if scnOrder {
			c.starving = scn.Starving(j, now)
			c.pri = j.Priority
		}
		cands = append(cands, c)
	}
	e.cands = cands
	// Starving first, then higher tiers, then the classic shortest-estimate
	// order: exactly the classic comparison when no scenario is active, and
	// under one with uniform tiers and nobody starving.
	pri := scn.Priorities
	slices.SortStableFunc(cands, func(a, b estimated) int {
		if a.starving != b.starving {
			if a.starving {
				return -1
			}
			return 1
		}
		if pri && a.pri != b.pri {
			return cmp.Compare(b.pri, a.pri)
		}
		if a.est != b.est {
			return cmp.Compare(a.est, b.est)
		}
		return cmp.Compare(a.job.ID, b.job.ID)
	})
	return cands
}
