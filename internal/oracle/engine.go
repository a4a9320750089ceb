package oracle

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Backfiller is a reference backfiller: called with the sorted queue's head
// (which does not fit now) and the rest of the queue, it may start jobs
// through e.start.
type Backfiller func(e *Engine, head *trace.Job, queue []*trace.Job)

// Engine is the naive per-event-time simulator. It advances to the next event
// instant (an arrival, a completion, or a queued job's starvation instant),
// applies completions before arrivals, and runs one scheduling pass: a full
// stable sort of the queue by Scenario.Less, start queue heads while they
// fit, then the backfiller. Its Machine is the live state the backfillers
// decide on. Run it with sched.Scenario{} on a trace whose Mem is 0 for the
// classic kernel.
type Engine struct {
	Machine
	policy sched.Policy
	scn    sched.Scenario
	bf     Backfiller

	pending []*trace.Job // submit-sorted, not yet arrived
	queue   []*trace.Job
	// wakes holds every starvation instant recorded at arrival, and the
	// engine wakes at each even if its job has long started: the optimised
	// engine's stale wake events also trigger a scheduling pass.
	wakes   []int64
	records []metrics.Record
}

// Run replays the trace (submit-sorted) and returns one record per job in
// start order. bf may be nil for no backfilling.
func Run(t *trace.Trace, p sched.Policy, scn sched.Scenario, est Est, bf Backfiller) []metrics.Record {
	e := &Engine{
		Machine: Machine{Procs: t.Procs, Mem: t.Mem, FreeProcs: t.Procs, FreeMem: t.Mem, Est: est},
		policy:  p, scn: scn, bf: bf, pending: t.Jobs,
	}
	for {
		next := int64(math.MaxInt64)
		if len(e.pending) > 0 {
			next = e.pending[0].Submit
		}
		for _, r := range e.Running {
			next = min(next, r.Start+actual(r.Job))
		}
		for _, w := range e.wakes {
			if w > e.Now {
				next = min(next, w)
			}
		}
		if next == math.MaxInt64 {
			return e.records
		}
		e.Now = next
		// Completions before arrivals at the same instant, all applied before
		// the single scheduling pass.
		keep := e.Running[:0]
		for _, r := range e.Running {
			if r.Start+actual(r.Job) == e.Now {
				e.FreeProcs += r.Job.Procs
				e.FreeMem += e.demand(r.Job)
			} else {
				keep = append(keep, r)
			}
		}
		e.Running = keep
		for len(e.pending) > 0 && e.pending[0].Submit == e.Now {
			j := e.pending[0]
			e.pending = e.pending[1:]
			e.queue = append(e.queue, j)
			if sa := e.scn.StarvesAt(j); e.scn.Aging() && sa > e.Now && sa != math.MaxInt64 {
				e.wakes = append(e.wakes, sa)
			}
		}
		e.wakes = slices.DeleteFunc(e.wakes, func(w int64) bool { return w <= e.Now })
		e.schedule()
	}
}

// actual is how long a job really runs: its runtime, cut at its request.
func actual(j *trace.Job) int64 {
	if j.Request > 0 && j.Runtime > j.Request {
		return j.Request
	}
	return j.Runtime
}

func (e *Engine) schedule() {
	sort.SliceStable(e.queue, func(a, b int) bool {
		ja, jb := e.queue[a], e.queue[b]
		return e.scn.Less(ja, jb, e.policy.Score(ja, e.Now), e.policy.Score(jb, e.Now), e.Now)
	})
	for len(e.queue) > 0 && e.fitsNow(e.queue[0]) {
		e.start(e.queue[0])
	}
	if len(e.queue) > 0 && e.bf != nil {
		e.bf(e, e.queue[0], slices.Clone(e.queue[1:]))
	}
}

func (e *Engine) fitsNow(j *trace.Job) bool {
	return j.Procs <= e.FreeProcs && e.demand(j) <= e.FreeMem
}

func (e *Engine) start(j *trace.Job) {
	i := slices.Index(e.queue, j)
	if i < 0 || !e.fitsNow(j) {
		panic("oracle: started a job that is not queued or does not fit")
	}
	e.queue = slices.Delete(e.queue, i, i+1)
	e.FreeProcs -= j.Procs
	e.FreeMem -= e.demand(j)
	e.Running = append(e.Running, Running{Job: j, Start: e.Now})
	e.records = append(e.records, metrics.Record{Job: j, Start: e.Now, End: e.Now + actual(j)})
}

// EASY is the reference EASY backfiller with the scenario's aging rule: the
// head's reservation plus one blocking reservation per starving queued job.
// A candidate may start if it fits now and, against the head's reservation
// and every other starving job's, ends by the shadow or fits in the extra.
// Candidates are scanned in queue order, or with sjf by estimated runtime
// then ID (starving jobs, then higher tiers, first when the scenario is
// enabled).
func EASY(sjf bool) Backfiller {
	return func(e *Engine, head *trace.Job, queue []*trace.Job) {
		now := e.Now
		res := e.Reservation(head)
		type protection struct {
			job *trace.Job
			res Reservation
		}
		var prots []protection
		for _, j := range queue {
			if e.scn.Aging() && e.scn.Starving(j, now) {
				prots = append(prots, protection{job: j, res: e.Reservation(j)})
			}
		}
		if sjf {
			slices.SortStableFunc(queue, func(a, b *trace.Job) int {
				if e.scn.Enabled() {
					if as, bs := e.scn.Starving(a, now), e.scn.Starving(b, now); as != bs {
						if as {
							return -1
						}
						return 1
					}
					if e.scn.Priorities && a.Priority != b.Priority {
						return cmp.Compare(b.Priority, a.Priority)
					}
				}
				return cmp.Or(cmp.Compare(e.Est(a), e.Est(b)), cmp.Compare(a.ID, b.ID))
			})
		}
		for _, j := range queue {
			jm := e.demand(j)
			if !e.fitsNow(j) {
				continue
			}
			end := now + e.Est(j)
			endsByShadow := end <= res.Shadow
			if !endsByShadow && (j.Procs > res.Extra || jm > res.ExtraMem) {
				continue
			}
			if slices.ContainsFunc(prots, func(p protection) bool {
				return p.job != j && end > p.res.Shadow && (j.Procs > p.res.Extra || jm > p.res.ExtraMem)
			}) {
				continue
			}
			e.start(j)
			if !endsByShadow {
				res.Extra -= j.Procs
				res.ExtraMem -= jm
			}
			prots = slices.DeleteFunc(prots, func(p protection) bool { return p.job == j })
			for i := range prots {
				if end > prots[i].res.Shadow {
					prots[i].res.Extra -= j.Procs
					prots[i].res.ExtraMem -= jm
				}
			}
			if e.FreeProcs == 0 {
				return
			}
		}
	}
}

// Conservative is the reference conservative backfiller. A round plans head
// and queue in queue order on the running set's profile (Machine.Plan). The
// round starts the first candidate that fits now and whose immediate start
// lets every other job, re-planned in order after it, start by its planned
// start. Rounds repeat until one starts nothing.
func Conservative() Backfiller {
	return func(e *Engine, head *trace.Job, queue []*trace.Job) {
		for {
			started := planRound(e, append([]*trace.Job{head}, queue...))
			if started == nil {
				return
			}
			queue = slices.DeleteFunc(queue, func(j *trace.Job) bool { return j == started })
		}
	}
}

func planRound(e *Engine, jobs []*trace.Job) *trace.Job {
	starts := e.Plan(jobs)
	for ci, cand := range jobs {
		if ci == 0 || !e.fitsNow(cand) {
			continue
		}
		trial := e.base()
		if !trial.Reserve(e.Now, e.Now+e.Est(cand), cand.Procs, e.demand(cand)) {
			continue
		}
		ok := true
		for i, j := range jobs {
			if i != ci && trial.place(e.Now, e.Est(j), j.Procs, e.demand(j)) > starts[i] {
				ok = false
				break
			}
		}
		if ok {
			e.start(cand)
			return cand
		}
	}
	return nil
}
