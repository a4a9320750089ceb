package backfill

import (
	"cmp"
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
// the extra processors.
type EASY struct {
	// Est supplies predicted runtimes for both the reservation and the
	// candidate-fit test. RequestTime{} gives plain EASY; ActualRuntime{}
	// gives the paper's EASY-AR; Noisy{...} gives Figure 1's error sweep.
	Est Estimator
	// Order controls candidate scan order (PolicyOrder by default).
	Order CandidateOrder
	// Scn layers priority tiers and the starvation bound onto the scan:
	// with aging on, every starving queued job's reservation becomes
	// blocking (kube-batch StarvationThreshold semantics) — a candidate
	// must respect the head's AND every starving job's shadow/extra. The
	// zero scenario reproduces classic EASY exactly.
	Scn sched.Scenario

	// Reusable scratch: EASY runs on every blocked scheduling event, so the
	// candidate decoration and reservation buffers are kept across calls.
	res   ReservationScratch
	cands []estimated
	prots []protection
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

// verdict is what the last round leaves behind: with aging off, every queued
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
// failed still fails. Cancels only remove candidates, and another head drops
// the verdict.
type verdict struct {
	at       Cursor // the journal position after the round's own starts; zero = no verdict
	head     *trace.Job
	est      Estimator
	memTotal int
	res      Reservation // the head's, when a round that started nothing computed it
	haveRes  bool
}

// NewEASY returns EASY backfilling with the given estimator and the classic
// policy-order candidate scan.
func NewEASY(est Estimator) *EASY { return &EASY{Est: est} }

// Fresh implements Cloneable: same configuration, own scratch.
func (e *EASY) Fresh() Backfiller { return &EASY{Est: e.Est, Order: e.Order, Scn: e.Scn} }

// Name implements Backfiller.
func (e *EASY) Name() string {
	n := "EASY-" + e.Est.Name()
	if e.Order == SJFOrder {
		n += "-SJF"
	}
	return n
}

// Backfill implements Backfiller. The head's reservation is computed when the
// first candidate that fits the free resources appears, so a round that can
// start nothing (a full machine, or only wide jobs waiting) costs one pass of
// integer compares; in policy order candidates are scanned straight off the
// queue and estimated only once they fit. While the last round's verdict
// holds, the scan starts at the first job that arrived since (resume). The
// queue must be the state's waiting queue (less the head), which grows only
// through journaled arrivals.
func (e *EASY) Backfill(st State, head *trace.Job, queue []*trace.Job) {
	free := st.FreeProcs()
	if free == 0 {
		return
	}
	now := st.Now()
	memFree, memTotal := MemOf(st)
	queue = queue[e.resume(st, head, queue, memTotal):]
	res, haveRes := e.last.res, e.last.haveRes

	// With aging on, every starving queued job gets its own blocking
	// reservation, computed EASY-style against the running set. Candidates
	// must then clear the head's shadow AND every starving job's.
	e.prots = e.prots[:0]
	if e.Scn.Aging() {
		for _, j := range queue {
			if e.Scn.Starving(j, now) {
				e.prots = append(e.prots, protection{job: j, res: e.res.Compute(st, j, e.Est)})
			}
		}
	}

	// In policy order the queue itself is the scan order; in SJF order only
	// the jobs that fit at round start are decorated and sorted.
	sorted := e.Order == SJFOrder
	n := len(queue)
	var cands []estimated
	if sorted {
		cands = e.sjfOrder(queue, now, free, memFree, memTotal)
		n = len(cands)
	}

	started := false
	for i := 0; i < n && free > 0; i++ {
		var j *trace.Job
		var est int64
		if sorted {
			j, est = cands[i].job, cands[i].est
		} else {
			j = queue[i]
		}
		jm := memDemand(j, memTotal)
		if j.Procs > free || jm > memFree {
			continue
		}
		if !sorted {
			est = e.Est.Estimate(j)
		}
		if !haveRes {
			res, haveRes = e.res.Compute(st, head, e.Est), true
		}
		end := now + est
		endsByShadow := end <= res.Shadow
		usesExtraOnly := j.Procs <= res.Extra && jm <= res.ExtraMem
		if !endsByShadow && !usesExtraOnly {
			continue
		}
		clear := true
		for pi := range e.prots {
			p := &e.prots[pi]
			if p.job == j {
				continue // a starving job is not blocked by its own reservation
			}
			if end <= p.res.Shadow || (j.Procs <= p.res.Extra && jm <= p.res.ExtraMem) {
				continue
			}
			clear = false
			break
		}
		if !clear {
			continue
		}
		st.StartJob(j)
		started = true
		free -= j.Procs
		memFree -= jm
		if !endsByShadow {
			// The job runs past the shadow time, so it permanently consumes
			// part of the head job's surplus.
			res.Extra -= j.Procs
			res.ExtraMem -= jm
		}
		for pi := 0; pi < len(e.prots); pi++ {
			p := &e.prots[pi]
			if p.job == j {
				// The starving job itself started; its reservation is moot.
				e.prots = append(e.prots[:pi], e.prots[pi+1:]...)
				pi--
				continue
			}
			if end > p.res.Shadow {
				p.res.Extra -= j.Procs
				p.res.ExtraMem -= jm
			}
		}
	}
	e.last = verdict{at: st.Journal().Cursor(), head: head, est: comparableOrNil(e.Est), memTotal: memTotal}
	if !started {
		e.last.res, e.last.haveRes = res, haveRes
	}
}

// resume returns the index where this round's scan starts. The last round's
// verdict holds when aging is off, the head, estimator and memory switch are
// the same, and the journal shows only arrivals since, sitting at the
// queue's tail in journal order: every job before them still fails, so the
// scan starts at the first arrival. Otherwise it drops the verdict, and the
// scan starts at 0.
func (e *EASY) resume(st State, head *trace.Job, queue []*trace.Job, memTotal int) int {
	v := &e.last
	if v.head == head && v.est != nil && e.Est == v.est && v.memTotal == memTotal && !e.Scn.Aging() {
		if changes, ok := st.Journal().Since(v.at); ok && len(changes) <= len(queue) {
			from := len(queue) - len(changes)
			i := 0
			for i < len(changes) && changes[i].Kind == Arrived && changes[i].Job == queue[from+i] {
				i++
			}
			if i == len(changes) {
				return from
			}
		}
	}
	*v = verdict{}
	return 0
}

// sjfOrder decorates the jobs that fit the free resources with their
// estimates (and, when a scenario is active, their scan-order keys), computed
// once per round rather than per comparison, and returns them
// shortest-estimate-first. Leaving out the jobs that do not fit is exact:
// free resources only fall within a round, so they never would.
func (e *EASY) sjfOrder(queue []*trace.Job, now int64, free, memFree, memTotal int) []estimated {
	scnOrder := e.Scn.Enabled()
	cands := e.cands[:0]
	for _, j := range queue {
		if j.Procs > free || memDemand(j, memTotal) > memFree {
			continue
		}
		c := estimated{job: j, est: e.Est.Estimate(j)}
		if scnOrder {
			c.starving = e.Scn.Starving(j, now)
			c.pri = j.Priority
		}
		cands = append(cands, c)
	}
	e.cands = cands
	// Starving first, then higher tiers, then the classic shortest-estimate
	// order: exactly the classic comparison when no scenario is active, and
	// under one with uniform tiers and nobody starving.
	pri := e.Scn.Priorities
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
