package backfill

import (
	"sort"

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
}

// estimated decorates a candidate with its runtime estimate (and, when a
// scenario is active, its scan-order keys), computed once per backfill round
// rather than per comparison and again per scan.
type estimated struct {
	job      *trace.Job
	est      int64
	starving bool
	pri      int
}

// protection is one starving job's blocking reservation during a round.
type protection struct {
	job *trace.Job
	res Reservation
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
// queue and estimated only once they fit.
func (e *EASY) Backfill(st State, head *trace.Job, queue []*trace.Job) {
	free := st.FreeProcs()
	if free == 0 {
		return
	}
	now := st.Now()
	memFree, memTotal := MemOf(st)

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

	// In policy order the queue itself is the scan order.
	sorted := e.Order == SJFOrder
	var cands []estimated
	if sorted {
		cands = e.sjfOrder(queue, now)
	}

	var res Reservation
	haveRes := false
	for i, j := range queue {
		var est int64
		if sorted {
			j, est = cands[i].job, cands[i].est
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
		if free == 0 {
			return
		}
	}
}

// sjfOrder decorates the queue with each job's estimate (and, when a scenario
// is active, its scan-order keys), computed once per round rather than per
// comparison, and returns it shortest-estimate-first.
func (e *EASY) sjfOrder(queue []*trace.Job, now int64) []estimated {
	scnOrder := e.Scn.Enabled()
	if cap(e.cands) < len(queue) {
		e.cands = make([]estimated, len(queue))
	}
	cands := e.cands[:len(queue)]
	for i, j := range queue {
		cands[i] = estimated{job: j, est: e.Est.Estimate(j)}
		if scnOrder {
			cands[i].starving = e.Scn.Starving(j, now)
			cands[i].pri = j.Priority
		}
	}
	// Starving first, then higher tiers, then the classic shortest-estimate
	// order: exactly the classic comparison when no scenario is active, and
	// under one with uniform tiers and nobody starving.
	pri := e.Scn.Priorities
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].starving != cands[b].starving {
			return cands[a].starving
		}
		if pri && cands[a].pri != cands[b].pri {
			return cands[a].pri > cands[b].pri
		}
		if cands[a].est != cands[b].est {
			return cands[a].est < cands[b].est
		}
		return cands[a].job.ID < cands[b].job.ID
	})
	return cands
}
