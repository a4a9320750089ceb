package sched

import (
	"math"
	"sort"

	"repro/internal/trace"
)

// Scenario layers production scheduling semantics — priority tiers and
// aging-based starvation bounds, per kube-batch's backfill/starvation design
// — on top of the paper's base policies. The zero value disables both, and
// every scenario-aware code path degenerates to the exact priority-unaware
// comparison in that case, which is what keeps the classic simulator
// byte-identical.
type Scenario struct {
	// Priorities enables tier ordering: a higher-Priority job ranks ahead of
	// any lower-Priority job regardless of base policy score.
	Priorities bool
	// StarvationBound B > 0 enables aging: a job whose wait reaches
	// B*max(Request,1) is starving. Starving jobs rank ahead of everything
	// non-starving (even higher tiers — the bound is an anti-starvation
	// guarantee, not a preference), and backfilling must preserve their
	// reservations, mirroring kube-batch's StarvationThreshold semantics.
	StarvationBound float64
}

// Enabled reports whether the scenario changes scheduling at all.
func (s Scenario) Enabled() bool { return s.Priorities || s.StarvationBound > 0 }

// Aging reports whether the starvation bound is active.
func (s Scenario) Aging() bool { return s.StarvationBound > 0 }

// TimeVarying reports whether queue order can change with the clock even
// under a static base policy. Aging is the only clock-dependent term.
func (s Scenario) TimeVarying() bool { return s.Aging() }

// StarvesAt returns the first instant at which j counts as starving, or
// math.MaxInt64 when aging is off.
func (s Scenario) StarvesAt(j *trace.Job) int64 {
	if !s.Aging() {
		return math.MaxInt64
	}
	req := j.Request
	if req < 1 {
		req = 1
	}
	d := int64(math.Ceil(s.StarvationBound * float64(req)))
	if d < 0 || j.Submit > math.MaxInt64-d { // overflow guard
		return math.MaxInt64
	}
	return j.Submit + d
}

// Starving reports whether j's wait has reached the starvation bound.
func (s Scenario) Starving(j *trace.Job, now int64) bool {
	return now >= s.StarvesAt(j)
}

// Less is the scenario queue order: starving jobs first, then priority tiers
// (higher first), then the canonical base order (score, submit, ID). With a
// zero scenario it is exactly Less, and with uniform priorities and no
// starving jobs it likewise reduces to Less — the degenerate-case identity
// the differential tests pin down.
func (s Scenario) Less(a, b *trace.Job, sa, sb float64, now int64) bool {
	if s.Aging() {
		as, bs := s.Starving(a, now), s.Starving(b, now)
		if as != bs {
			return as
		}
	}
	if s.Priorities && a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return Less(a, b, sa, sb)
}

// scoredSc decorates a job with everything the scenario comparison needs so
// each term is computed once per sort, not O(n log n) times.
type scoredSc struct {
	job      *trace.Job
	score    float64
	starving bool
	pri      int32
}

// SortScenario orders jobs in place by the scenario Less order, computing
// each job's score and starvation state exactly once. When scores is non-nil
// it must have len(scores) == len(jobs) and receives the sorted jobs' scores
// (aligned index-for-index with the sorted queue).
func (s *Sorter) SortScenario(jobs []*trace.Job, scores []float64, p Policy, now int64, sc Scenario) {
	if scores != nil && len(scores) != len(jobs) {
		panic("sched: scores length does not match jobs")
	}
	if cap(s.buf) < len(jobs) {
		s.buf = make([]scoredSc, len(jobs))
	}
	buf := s.buf[:len(jobs)]
	for i, j := range jobs {
		buf[i] = scoredSc{job: j, score: p.Score(j, now), starving: sc.Starving(j, now), pri: j.Priority}
	}
	priorities := sc.Priorities
	sort.SliceStable(buf, func(a, b int) bool {
		if buf[a].starving != buf[b].starving {
			return buf[a].starving
		}
		if priorities && buf[a].pri != buf[b].pri {
			return buf[a].pri > buf[b].pri
		}
		return Less(buf[a].job, buf[b].job, buf[a].score, buf[b].score)
	})
	for i, e := range buf {
		jobs[i] = e.job
		if scores != nil {
			scores[i] = e.score
		}
	}
}
