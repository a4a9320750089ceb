package sim

import (
	"fmt"
	"slices"

	"repro/internal/backfill"
	"repro/internal/trace"
)

// Live-ingestion engine API: the serve daemon (internal/serve) drives one
// authoritative Engine from streaming job submissions instead of a fully
// known trace. The batch replay path is untouched — a live engine is an
// ordinary Engine whose arrival stream starts empty and grows via Inject, so
// every kernel invariant (incrementally sorted queue, lazy arrival feeding,
// snapshot/resume) applies verbatim.

// NewLiveEngine prepares an engine over an initially empty arrival stream on
// a machine of the given size. Jobs are admitted later via Inject; mem == 0
// disables the memory dimension exactly as for batch traces.
func NewLiveEngine(name string, procs, mem int, cfg Config) (*Engine, error) {
	return NewEngine(&trace.Trace{Name: name, Procs: procs, Mem: mem}, cfg)
}

// Inject appends a job to the engine's arrival stream. The job must satisfy
// the same invariants trace.Validate enforces for batch replays: it must fit
// the machine, its ID must not be pending, queued or running already, and
// its submit time must be at or after both the engine clock and the last
// not-yet-admitted arrival, so the stream stays submit-sorted. The job is
// admitted to the waiting queue when the clock reaches its submit time
// (Step), exactly like a batch arrival.
func (e *Engine) Inject(j *trace.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.Procs > e.procs {
		return fmt.Errorf("sim: job %d requests %d procs > machine size %d", j.ID, j.Procs, e.procs)
	}
	if e.mem > 0 && j.Mem > e.mem {
		return fmt.Errorf("sim: job %d requests %d mem > machine capacity %d", j.ID, j.Mem, e.mem)
	}
	if j.Submit < e.clock {
		return fmt.Errorf("sim: job %d submitted at %d before engine clock %d", j.ID, j.Submit, e.clock)
	}
	if n := len(e.arrivals); n > e.nextArr && j.Submit < e.arrivals[n-1].Submit {
		return fmt.Errorf("sim: job %d submitted at %d before pending arrival at %d", j.ID, j.Submit, e.arrivals[n-1].Submit)
	}
	if j.ID <= e.maxID && e.holds(j.ID) {
		return fmt.Errorf("sim: job %d is already pending, queued or running", j.ID)
	}
	e.maxID = max(e.maxID, j.ID)
	e.arrivals = append(e.arrivals, j)
	return nil
}

// holds reports whether a job with this ID is pending, queued or running.
func (e *Engine) holds(id int) bool {
	is := func(j *trace.Job) bool { return j.ID == id }
	return slices.ContainsFunc(e.arrivals[e.nextArr:], is) || slices.ContainsFunc(e.queue, is) ||
		slices.ContainsFunc(e.running, func(r backfill.Running) bool { return is(r.Job) })
}

// Cancel removes a not-yet-started job by ID — either still pending in the
// arrival stream or waiting in the queue — and reports whether it was found.
// Running and finished jobs cannot be canceled (the simulator has no
// preemption); callers distinguish "too late" from "unknown" themselves.
// Removing a queued job preserves the queue's sort order and is journaled
// (backfill.Canceled), and any Wake event already scheduled for the job
// becomes a harmless timed no-op.
func (e *Engine) Cancel(id int) bool {
	for i := e.nextArr; i < len(e.arrivals); i++ {
		if e.arrivals[i].ID == id {
			e.arrivals = append(e.arrivals[:i], e.arrivals[i+1:]...)
			return true
		}
	}
	for i, j := range e.queue {
		if j.ID == id {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			e.qscore = append(e.qscore[:i], e.qscore[i+1:]...)
			e.journal.Record(backfill.Canceled, j, e.clock)
			return true
		}
	}
	return false
}

// NextEventTime returns the earliest pending timestamp (job completion, wake
// tick or unadmitted arrival), or ok=false when the engine is drained. The
// serve daemon maps it to a wall-clock deadline through its clock adapter.
func (e *Engine) NextEventTime() (int64, bool) { return e.nextTime() }

// AppendQueued appends the waiting jobs in queue order to buf and returns
// it. For static policies the order is the authoritative scheduling order;
// callers must not mutate the jobs.
func (e *Engine) AppendQueued(buf []*trace.Job) []*trace.Job {
	return append(buf, e.queue...)
}

// AppendPending appends the injected-but-not-yet-admitted arrivals (submit
// time still in the future, or not yet advanced to) in submit order.
func (e *Engine) AppendPending(buf []*trace.Job) []*trace.Job {
	return append(buf, e.arrivals[e.nextArr:]...)
}

// PendingArrivals returns the number of injected jobs not yet admitted to
// the waiting queue.
func (e *Engine) PendingArrivals() int { return len(e.arrivals) - e.nextArr }

// RunningCount returns the number of executing jobs.
func (e *Engine) RunningCount() int { return len(e.running) }
