// Package sim is the event-driven HPC scheduling simulator (the paper's
// "Simulated Environment", §3.4): it replays a job trace against a
// homogeneous cluster under a base scheduling policy, invoking a pluggable
// backfiller whenever the head of the queue cannot start.
//
// The simulator is the inner loop of every PPO rollout, so the per-event
// scheduling kernel is engineered for throughput: static-score policies
// (Policy.TimeVarying() == false) keep the waiting queue incrementally
// sorted — each arrival is binary-inserted once and the queue is never
// re-sorted — while time-varying policies (WFP3) fall back to a decorated
// re-sort that computes each score exactly once per event. Queue removal
// locates jobs by binary search on their score instead of a linear scan, and
// the running set is one binary min-heap on (end, job ID), which is also the
// engine's only record of what runs: completions pop off its top, and a
// cluster.Cluster counts the free processors and memory. Every start, finish,
// arrival, cancel and re-sort is also written to a bounded change journal
// (backfill.Journal), from which backfillers that keep state across rounds
// learn what changed instead of re-deriving it: the reservation index
// applies the starts and finishes, EASY answers a round that saw only
// finishes and arrivals by testing its live list and the arrivals, and
// conservative backfilling carries its plan while the changes go by it. All
// orderings use the scenario order (sched.Scenario.Less, which is score, then
// submit time, then ID under the zero scenario), and arrivals
// are fed lazily from the submit-sorted trace instead of being heap-pushed
// one event per job up front — the event queue holds only the Wake ticks of
// an aging scenario — which keeps schedules bit-identical to a naive
// sort-every-event kernel.
package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/backfill"
	"repro/internal/cluster"
	"repro/internal/eventq"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Config selects the scheduling behaviour for a run.
type Config struct {
	// Policy is the base scheduling policy (Table 3). Required.
	Policy sched.Policy
	// Backfiller runs when the head job cannot start. nil disables
	// backfilling entirely (pure FCFS-style blocking).
	Backfiller backfill.Backfiller
	// Scenario layers priority tiers and the aging-based starvation bound
	// onto the base policy (see sched.Scenario). The zero value keeps the
	// classic, byte-identical scheduling semantics. Backfillers read it
	// through State.Scenario.
	Scenario sched.Scenario
	// Probe, when non-nil, observes the engine after every event batch
	// (instrumentation only; it cannot influence scheduling).
	Probe Probe
}

// Result is the outcome of simulating a trace.
type Result struct {
	Records []metrics.Record
	Summary metrics.Summary
}

// Engine is the simulator state machine. It implements backfill.State so
// backfillers (including the RL agent) can inspect and act on it. Use Run
// for the common replay-a-whole-trace case.
type Engine struct {
	cfg   Config
	procs int
	mem   int // 0 = memory dimension off
	clock int64
	// machine counts the processors and memory the running jobs leave free.
	machine cluster.Cluster
	// running is a binary min-heap on (end, job ID) with ends[i] the end of
	// running[i]: the engine's only record of what runs. Its top is the next
	// completion.
	running []backfill.Running
	ends    []int64
	// events holds, under an aging scenario, the Wake ticks at waiting jobs'
	// starvation-transition instants; arrivals are fed lazily from the
	// submit-sorted trace below, and completions come off running.
	events eventq.Queue
	// arrivals is the validated, submit-sorted job list; nextArr indexes the
	// first job not yet admitted to the waiting queue.
	arrivals []*trace.Job
	nextArr  int
	// queue holds the waiting jobs; qscore[i] is queue[i]'s policy score.
	// For static policies both stay sorted (Scenario.Less) at all times; for
	// time-varying policies they are re-sorted at the top of every
	// scheduling round, so they are ordered whenever StartJob can run.
	queue  []*trace.Job
	qscore []float64
	static bool
	sorter sched.Sorter
	// maxID is the largest job ID admitted, so Inject looks for a repeat
	// only below it.
	maxID int
	// journal records every start, finish, arrival, cancel and re-sort for
	// the backfillers that keep state across rounds (backfill.State.Journal).
	journal backfill.Journal
	restBuf []*trace.Job // scratch: the backfiller's view of queue[1:]
	records []metrics.Record
}

// NewEngine prepares an engine for the given trace. The trace is validated
// (which guarantees submit-sorted jobs); arrivals are fed lazily from that
// order rather than heap-pushed up front, so the event queue stays
// proportional to the running set.
func NewEngine(t *trace.Trace, cfg Config) (*Engine, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("sim: config needs a base scheduling policy")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		procs:    t.Procs,
		mem:      t.Mem,
		machine:  *cluster.NewWithMem(t.Procs, t.Mem),
		static:   !cfg.Policy.TimeVarying() && !cfg.Scenario.TimeVarying(),
		arrivals: t.Jobs,
		records:  make([]metrics.Record, 0, len(t.Jobs)),
	}
	for _, j := range t.Jobs {
		e.maxID = max(e.maxID, j.ID)
	}
	e.journal.Open()
	return e, nil
}

// Run replays the whole trace to completion and returns per-job records plus
// aggregate metrics.
func Run(t *trace.Trace, cfg Config) (*Result, error) {
	e, err := NewEngine(t, cfg)
	if err != nil {
		return nil, err
	}
	e.RunToCompletion()
	return &Result{Records: e.records, Summary: metrics.Summarize(e.records, t.Procs)}, nil
}

// RunToCompletion processes every event until all jobs have finished.
func (e *Engine) RunToCompletion() {
	for e.Step() {
	}
}

// Step advances the simulation by one event batch: it drains every event at
// the earliest pending timestamp (so a single scheduling decision sees all
// completions and arrivals at that instant), runs one scheduling round, and
// notifies the probe. It reports false when no events remain. Completions
// apply before arrivals at the same instant, in job-ID order, so freed
// processors are visible to the newly arrived jobs, and arrivals enter in
// trace order.
func (e *Engine) Step() bool {
	now, ok := e.nextTime()
	if !ok {
		return false
	}
	e.clock = now
	for len(e.ends) > 0 && e.ends[0] == now {
		e.finishTop()
	}
	// Starvation-transition ticks change no state: the scheduling round
	// below re-ranks the queue at this instant.
	for ev, ok := e.events.Peek(); ok && ev.Time == now; ev, ok = e.events.Peek() {
		e.events.Pop()
	}
	for e.nextArr < len(e.arrivals) && e.arrivals[e.nextArr].Submit == now {
		e.enqueue(e.arrivals[e.nextArr])
		e.nextArr++
	}
	e.schedule()
	if e.cfg.Probe != nil {
		e.cfg.Probe.Observe(e.clock, len(e.queue), e.machine.Free(), e.procs)
	}
	return true
}

// nextTime returns the earliest pending timestamp across the running heap,
// the wake ticks and the unfed arrivals, or ok=false when the simulation is
// drained.
func (e *Engine) nextTime() (int64, bool) {
	var t int64
	have := len(e.ends) > 0
	if have {
		t = e.ends[0]
	}
	if ev, ok := e.events.Peek(); ok && (!have || ev.Time < t) {
		t, have = ev.Time, true
	}
	if e.nextArr < len(e.arrivals) {
		if s := e.arrivals[e.nextArr].Submit; !have || s < t {
			t, have = s, true
		}
	}
	return t, have
}

// finishTop completes the job on top of the running heap.
func (e *Engine) finishTop() {
	j := e.running[0].Job
	last := len(e.running) - 1
	e.swap(0, last)
	e.running[last] = backfill.Running{} // drop the job reference
	e.running, e.ends = e.running[:last], e.ends[:last]
	e.down(0)
	e.machine.Release(j.Procs, j.Mem)
	e.journal.Record(backfill.Finished, j, e.clock)
}

// pushRunning adds a job to the running heap once its resources are
// allocated (shared by StartJob and snapshot restore, so the representation
// cannot drift between them).
func (e *Engine) pushRunning(j *trace.Job, start, end int64) {
	e.running = append(e.running, backfill.Running{Job: j, Start: start})
	e.ends = append(e.ends, end)
	for i := len(e.ends) - 1; i > 0; {
		p := (i - 1) / 2
		if !e.less(i, p) {
			break
		}
		e.swap(i, p)
		i = p
	}
}

// less orders the running heap on (end, job ID).
func (e *Engine) less(a, b int) bool {
	if e.ends[a] != e.ends[b] {
		return e.ends[a] < e.ends[b]
	}
	return e.running[a].Job.ID < e.running[b].Job.ID
}

func (e *Engine) swap(a, b int) {
	e.running[a], e.running[b] = e.running[b], e.running[a]
	e.ends[a], e.ends[b] = e.ends[b], e.ends[a]
}

func (e *Engine) down(i int) {
	n := len(e.ends)
	for {
		m := i
		if l := 2*i + 1; l < n && e.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < n && e.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		e.swap(i, m)
		i = m
	}
}

// enqueue adds an arriving job to the waiting queue. Static policies
// binary-insert at the job's final position (scores never change, so the
// queue stays sorted forever); time-varying policies — including any static
// base policy under an aging scenario — just append and let schedule
// re-sort. With aging on, the job's starvation-transition instant is queued
// as a Wake event so its rank change cannot overshoot an event drought.
func (e *Engine) enqueue(j *trace.Job) {
	e.journal.Record(backfill.Arrived, j, e.clock)
	if e.cfg.Scenario.Aging() {
		if sa := e.cfg.Scenario.StarvesAt(j); sa > e.clock && sa != math.MaxInt64 {
			e.events.Push(eventq.Event{Time: sa, Kind: eventq.Wake, Payload: j})
		}
	}
	if !e.static {
		e.queue = append(e.queue, j)
		e.qscore = append(e.qscore, 0)
		return
	}
	score := e.cfg.Policy.Score(j, e.clock)
	// Aging is off here (static would be false), so scenario order is
	// time-invariant and binary insertion stays valid.
	i := sort.Search(len(e.queue), func(i int) bool {
		return e.cfg.Scenario.Less(j, e.queue[i], score, e.qscore[i], e.clock)
	})
	e.queue = append(e.queue, nil)
	copy(e.queue[i+1:], e.queue[i:])
	e.queue[i] = j
	e.qscore = append(e.qscore, 0)
	copy(e.qscore[i+1:], e.qscore[i:])
	e.qscore[i] = score
}

// schedule starts queue-head jobs while they fit, then gives the backfiller
// one round if the head is blocked.
func (e *Engine) schedule() {
	if len(e.queue) == 0 {
		return
	}
	if !e.static {
		// Time-varying scores: one decorated sort per event, each score
		// computed exactly once.
		e.sorter.SortScenario(e.queue, e.qscore, e.cfg.Policy, e.clock, e.cfg.Scenario)
		e.journal.Record(backfill.Reordered, nil, e.clock)
	}
	for len(e.queue) > 0 && e.machine.FitsRes(e.queue[0].Procs, e.queue[0].Mem) {
		e.StartJob(e.queue[0])
	}
	if len(e.queue) == 0 || e.cfg.Backfiller == nil {
		return
	}
	head := e.queue[0]
	e.restBuf = append(e.restBuf[:0], e.queue[1:]...)
	e.cfg.Backfiller.Backfill(e, head, e.restBuf)
}

// Now implements backfill.State.
func (e *Engine) Now() int64 { return e.clock }

// FreeProcs implements backfill.State.
func (e *Engine) FreeProcs() int { return e.machine.Free() }

// TotalProcs implements backfill.State.
func (e *Engine) TotalProcs() int { return e.procs }

// FreeMem implements backfill.MemState.
func (e *Engine) FreeMem() int { return e.machine.FreeMem() }

// TotalMem implements backfill.MemState; 0 means the machine (trace) has no
// memory dimension and every memory constraint is inert.
func (e *Engine) TotalMem() int { return e.mem }

// Running implements backfill.State; the slice is the running heap, in heap
// order. It is the engine's live bookkeeping (maintained incrementally,
// never rebuilt): callers must treat it as read-only and must not retain it
// across StartJob calls or simulation steps.
func (e *Engine) Running() []backfill.Running { return e.running }

// Journal implements backfill.State: the engine's recent starts, finishes,
// arrivals, cancels and re-sorts. Every engine, a restored one included,
// opens its own.
func (e *Engine) Journal() *backfill.Journal { return &e.journal }

// Scenario implements backfill.State: the configured scheduling scenario.
func (e *Engine) Scenario() sched.Scenario { return e.cfg.Scenario }

// queueIndex locates a waiting job. The queue is sorted whenever starts can
// happen, so a binary search on the job's score finds it in O(log n); a
// linear scan remains as a defensive fallback (it cannot be wrong, only
// slower).
func (e *Engine) queueIndex(j *trace.Job) int {
	if len(e.queue) > 0 && e.queue[0] == j {
		return 0 // the common case: starting the head
	}
	score := e.cfg.Policy.Score(j, e.clock)
	i := sort.Search(len(e.queue), func(i int) bool {
		return !e.cfg.Scenario.Less(e.queue[i], j, e.qscore[i], score, e.clock)
	})
	if i < len(e.queue) && e.queue[i] == j {
		return i
	}
	for k, q := range e.queue {
		if q == j {
			return k
		}
	}
	return -1
}

// StartJob implements backfill.State: it allocates processors, removes the
// job from the waiting queue, and schedules its completion. As on a real
// system (§2.1.2: "the scheduler will cancel or kill jobs that surpass their
// Request Time"), a job whose actual runtime exceeds its request is killed
// when the wall-time limit expires.
func (e *Engine) StartJob(j *trace.Job) {
	if err := e.machine.Alloc(j.Procs, j.Mem); err != nil {
		panic(fmt.Sprintf("sim: starting job %d: %v", j.ID, err))
	}
	i := e.queueIndex(j)
	if i < 0 {
		panic(fmt.Sprintf("sim: job %d started but not in queue", j.ID))
	}
	e.queue = append(e.queue[:i], e.queue[i+1:]...)
	e.qscore = append(e.qscore[:i], e.qscore[i+1:]...)
	end := e.clock + effectiveRuntime(j)
	e.pushRunning(j, e.clock, end)
	e.journal.Record(backfill.Started, j, e.clock)
	e.records = append(e.records, metrics.Record{Job: j, Start: e.clock, End: end})
}

// effectiveRuntime is the time a started job occupies the machine: its
// actual runtime, clamped to the wall-time limit it is killed at.
func effectiveRuntime(j *trace.Job) int64 {
	if j.Request > 0 && j.Runtime > j.Request {
		return j.Request // killed at the wall-time limit
	}
	return j.Runtime
}

// QueueLen returns the number of waiting jobs (useful for instrumentation).
func (e *Engine) QueueLen() int { return len(e.queue) }

// Records returns the per-job outcomes recorded so far.
func (e *Engine) Records() []metrics.Record { return e.records }
