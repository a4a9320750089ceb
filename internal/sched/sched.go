// Package sched implements the base scheduling policies of Table 3 of the
// paper: FCFS, SJF, WFP3 and F1. A policy assigns every waiting job a score;
// the simulator runs the lowest-scoring job first.
package sched

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// Policy orders the waiting queue. Lower Score runs first. Score may depend
// on the current time (WFP3's waiting-time term); TimeVarying tells the
// simulator whether it does, so that static policies can keep an
// incrementally maintained sorted queue instead of re-sorting at every
// scheduling event.
type Policy interface {
	Name() string
	Score(j *trace.Job, now int64) float64
	// TimeVarying reports whether Score depends on the `now` argument. When
	// false, Score(j, t1) == Score(j, t2) for all t1, t2, and schedulers may
	// cache scores computed at any time.
	TimeVarying() bool
}

// FCFS schedules jobs in submission order: score(t) = s_t.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "FCFS" }

// Score implements Policy.
func (FCFS) Score(j *trace.Job, _ int64) float64 { return float64(j.Submit) }

// TimeVarying implements Policy.
func (FCFS) TimeVarying() bool { return false }

// SJF runs the job with the shortest requested time first: score(t) = r_t.
type SJF struct{}

// Name implements Policy.
func (SJF) Name() string { return "SJF" }

// Score implements Policy.
func (SJF) Score(j *trace.Job, _ int64) float64 { return float64(j.Request) }

// TimeVarying implements Policy.
func (SJF) TimeVarying() bool { return false }

// WFP3 favours jobs with long waits, short requests and few processors
// (Tang et al. 2009): score(t) = -(w_t/r_t)^3 * n_t.
type WFP3 struct{}

// Name implements Policy.
func (WFP3) Name() string { return "WFP3" }

// Score implements Policy.
func (WFP3) Score(j *trace.Job, now int64) float64 {
	wait := float64(now - j.Submit)
	if wait < 0 {
		wait = 0
	}
	rt := math.Max(float64(j.Request), 1)
	ratio := wait / rt
	return -(ratio * ratio * ratio) * float64(j.Procs)
}

// TimeVarying implements Policy: the waiting-time term makes WFP3 scores
// clock-dependent.
func (WFP3) TimeVarying() bool { return true }

// F1 is the best non-linear-regression policy from Carastan-Santos & de
// Camargo (SC'17): score(t) = log10(r_t)*n_t + 870*log10(s_t).
type F1 struct{}

// Name implements Policy.
func (F1) Name() string { return "F1" }

// Score implements Policy.
func (F1) Score(j *trace.Job, _ int64) float64 {
	rt := math.Max(float64(j.Request), 1)
	st := math.Max(float64(j.Submit), 1) // log10 needs a positive argument
	return math.Log10(rt)*float64(j.Procs) + 870*math.Log10(st)
}

// TimeVarying implements Policy: F1 depends on the submission time, not the
// current time.
func (F1) TimeVarying() bool { return false }

// ByName returns the policy with the given (case-sensitive) Table 3 name.
func ByName(name string) (Policy, error) {
	switch name {
	case "FCFS":
		return FCFS{}, nil
	case "SJF":
		return SJF{}, nil
	case "WFP3":
		return WFP3{}, nil
	case "F1":
		return F1{}, nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q (want FCFS, SJF, WFP3 or F1)", name)
}

// All returns every Table 3 policy in the paper's order.
func All() []Policy { return []Policy{FCFS{}, SJF{}, WFP3{}, F1{}} }

// Less is the canonical queue order: ascending policy score (sa, sb are the
// scores of a and b), breaking ties by submission time then ID so that
// schedules are deterministic. Every queue in the simulator — whether
// re-sorted per event or maintained incrementally — uses exactly this
// comparison, which is what keeps kernel variants bit-identical.
func Less(a, b *trace.Job, sa, sb float64) bool {
	if sa != sb {
		return sa < sb
	}
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

// Sorter sorts job queues with a reusable decoration buffer, avoiding the
// per-event allocation and repeated Score calls of the naive comparator
// sort. The zero value is ready to use; a Sorter is not goroutine-safe.
type Sorter struct {
	buf []scoredSc // see SortScenario
}

// Sort orders jobs in place by the canonical Less order: SortScenario under
// the zero scenario.
func (s *Sorter) Sort(jobs []*trace.Job, scores []float64, p Policy, now int64) {
	s.SortScenario(jobs, scores, p, now, Scenario{})
}

// Sort orders jobs in place by ascending policy score, breaking ties by
// submission time then ID so that schedules are deterministic. Hot paths
// should hold a Sorter instead to reuse its scratch buffer across events.
func Sort(jobs []*trace.Job, p Policy, now int64) {
	var s Sorter
	s.Sort(jobs, nil, p, now)
}
