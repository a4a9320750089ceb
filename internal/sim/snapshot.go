package sim

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/backfill"
	"repro/internal/trace"
)

// Snapshot captures the scheduling state of an engine mid-trace: the clock,
// the waiting queue (in queue order), the running set and the arrival cursor.
// A snapshot plus the not-yet-admitted suffix of the trace is enough to
// resume the replay exactly where it stopped (see NewEngineFromSnapshot), so
// a long replay can be cut into bounded-horizon segments whose concatenated
// records equal the straight-through run. The sharded replayer
// (internal/shard) builds on the same invariant: engine state at an instant
// plus the remaining arrivals fully determines the rest of the schedule.
type Snapshot struct {
	// Clock is the simulation time the snapshot was taken at.
	Clock int64
	// Queued holds the waiting jobs in the engine's queue order.
	Queued []*trace.Job
	// Running holds the executing jobs, sorted by ID, with their recorded
	// start times.
	Running []backfill.Running
	// NextArrival is the index into the original trace's job list of the
	// first job not yet admitted; the caller resumes with a trace containing
	// Jobs[NextArrival:].
	NextArrival int
}

// Snapshot captures the engine's current scheduling state. The queue and
// running slices are copied, but the jobs themselves are shared (the engine
// never mutates jobs), so a snapshot is cheap even with a deep backlog. The
// running copy is sorted by ID, so a snapshot does not depend on the order
// the running heap happens to hold its jobs in.
func (e *Engine) Snapshot() Snapshot {
	running := slices.Clone(e.running)
	slices.SortFunc(running, func(a, b backfill.Running) int { return cmp.Compare(a.Job.ID, b.Job.ID) })
	return Snapshot{
		Clock:       e.clock,
		Queued:      slices.Clone(e.queue),
		Running:     running,
		NextArrival: e.nextArr,
	}
}

// NewEngineFromSnapshot prepares an engine that resumes from a mid-trace
// snapshot: the running heap, free resources and waiting queue are rebuilt
// from snap, and t supplies the remaining arrivals (the suffix of the
// original trace from snap.NextArrival on). Records are emitted only for
// jobs started after the resume — jobs already running at the snapshot were
// recorded by the segment that started them. A snapshot whose job IDs repeat
// across the running set, the queue and t, or whose running set does not fit
// the machine, is refused.
func NewEngineFromSnapshot(t *trace.Trace, cfg Config, snap Snapshot) (*Engine, error) {
	e, err := NewEngine(t, cfg)
	if err != nil {
		return nil, err
	}
	held := make(map[int]bool, len(snap.Running)+len(snap.Queued))
	hold := func(j *trace.Job) error {
		if held[j.ID] {
			return fmt.Errorf("sim: snapshot holds job %d twice", j.ID)
		}
		held[j.ID] = true
		e.maxID = max(e.maxID, j.ID)
		return nil
	}
	e.clock = snap.Clock
	for _, r := range snap.Running {
		j := r.Job
		if err := hold(j); err != nil {
			return nil, err
		}
		if err := e.machine.Alloc(j.Procs, j.Mem); err != nil {
			return nil, fmt.Errorf("sim: restoring running job %d: %v", j.ID, err)
		}
		end := r.Start + effectiveRuntime(j)
		if end < snap.Clock {
			return nil, fmt.Errorf("sim: running job %d finished at %d before snapshot clock %d", j.ID, end, snap.Clock)
		}
		e.pushRunning(j, r.Start, end)
	}
	// Re-inserting in snapshot (queue) order reproduces the original queue
	// exactly: binary insertion places equal-score jobs after their existing
	// equals, and time-varying queues are re-sorted every round anyway.
	for _, j := range snap.Queued {
		if err := hold(j); err != nil {
			return nil, err
		}
		e.enqueue(j)
	}
	for _, j := range t.Jobs {
		if held[j.ID] {
			return nil, fmt.Errorf("sim: job %d is both in the snapshot and still to arrive", j.ID)
		}
	}
	return e, nil
}
