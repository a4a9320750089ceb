package sim

import (
	"testing"

	"repro/internal/backfill"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestSnapshotResumeDifferential pins the resume invariant the sharded
// replayer's stitching argument rests on: engine state plus the remaining
// arrivals fully determines the rest of the schedule. A replay cut at an
// arbitrary horizon and resumed via NewEngineFromSnapshot must produce, as
// the concatenation of both segments' records, exactly the straight-through
// run — for static and time-varying policies, with and without backfilling.
func TestSnapshotResumeDifferential(t *testing.T) {
	tr := trace.SyntheticSDSCSP2(800, 1)
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"FCFS+EASY", func() Config {
			return Config{Policy: sched.FCFS{}, Backfiller: backfill.NewEASY(backfill.RequestTime{})}
		}},
		{"SJF+conservative", func() Config {
			return Config{Policy: sched.SJF{}, Backfiller: backfill.NewConservative(backfill.RequestTime{})}
		}},
		{"WFP3+none", func() Config {
			return Config{Policy: sched.WFP3{}}
		}},
	}
	for _, tc := range cases {
		full, err := Run(tr.Clone(), tc.cfg())
		if err != nil {
			t.Fatal(err)
		}
		makespan := full.Summary.Makespan
		for _, frac := range []float64{0.25, 0.5, 0.9} {
			horizon := int64(float64(makespan) * frac)
			work := tr.Clone()
			a, err := NewEngine(work, tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if !runUntil(a, horizon) {
				t.Fatalf("%s: replay drained before horizon %d", tc.name, horizon)
			}
			snap := a.Snapshot()
			rest := &trace.Trace{Name: work.Name, Procs: work.Procs, Jobs: work.Jobs[snap.NextArrival:]}
			b, err := NewEngineFromSnapshot(rest, tc.cfg(), snap)
			if err != nil {
				t.Fatal(err)
			}
			b.RunToCompletion()
			recs := append(append([]metrics.Record(nil), a.Records()...), b.Records()...)
			if len(recs) != len(full.Records) {
				t.Fatalf("%s@%.2f: %d records after resume, want %d", tc.name, frac, len(recs), len(full.Records))
			}
			for i := range recs {
				w, g := full.Records[i], recs[i]
				if w.Job.ID != g.Job.ID || w.Start != g.Start || w.End != g.End {
					t.Fatalf("%s@%.2f: record %d differs: full {job %d %d-%d} vs resumed {job %d %d-%d}",
						tc.name, frac, i, w.Job.ID, w.Start, w.End, g.Job.ID, g.Start, g.End)
				}
			}
		}
	}
}

// runUntil steps e through every event batch due at or before horizon and
// reports whether events remain past it (false = the replay has drained).
// After it returns true, Snapshot captures a state from which
// NewEngineFromSnapshot continues the replay exactly.
func runUntil(e *Engine, horizon int64) bool {
	for {
		at, ok := e.NextEventTime()
		if !ok {
			return false
		}
		if at > horizon {
			return true
		}
		e.Step()
	}
}

// TestStepReportsDrain pins the contract a stepping caller relies on: while
// NextEventTime reports an event, Step processes the batch at that instant;
// once the replay has drained, NextEventTime reports none and Step false.
func TestStepReportsDrain(t *testing.T) {
	tr := trace.SyntheticSDSCSP2(200, 1)
	e, err := NewEngine(tr.Clone(), Config{Policy: sched.FCFS{}, Backfiller: backfill.NewEASY(backfill.RequestTime{})})
	if err != nil {
		t.Fatal(err)
	}
	for {
		at, ok := e.NextEventTime()
		if !ok {
			break
		}
		if !e.Step() || e.Now() != at {
			t.Fatalf("Step with an event pending at %d left the clock at %d", at, e.Now())
		}
	}
	if e.Step() {
		t.Fatal("Step reports work after the replay drained")
	}
	if len(e.Records()) != 200 {
		t.Fatalf("%d records after full drain, want 200", len(e.Records()))
	}
}

// A snapshot that holds a job twice, or runs more than the machine has, is
// refused at load, before any round could start a job a second time.
func TestRestoreRejectsRepeatedIDsAndOvercommit(t *testing.T) {
	mk := func(id, procs, mem int) *trace.Job {
		return &trace.Job{ID: id, Submit: 0, Runtime: 100, Request: 100, Procs: procs, Mem: mem}
	}
	running := func(jobs ...*trace.Job) []backfill.Running {
		var rs []backfill.Running
		for _, j := range jobs {
			rs = append(rs, backfill.Running{Job: j, Start: 0})
		}
		return rs
	}
	cfg := Config{Policy: sched.FCFS{}, Backfiller: backfill.NewEASY(backfill.RequestTime{})}
	for _, c := range []struct {
		name string
		mem  int
		snap Snapshot
		rest []*trace.Job
	}{
		{name: "running and queued", snap: Snapshot{Running: running(mk(1, 2, 0)), Queued: []*trace.Job{mk(1, 2, 0)}}},
		{name: "running twice", snap: Snapshot{Running: running(mk(1, 2, 0), mk(1, 2, 0))}},
		{name: "queued twice", snap: Snapshot{Queued: []*trace.Job{mk(2, 2, 0), mk(2, 2, 0)}}},
		{name: "running and arriving", snap: Snapshot{Running: running(mk(3, 2, 0))}, rest: []*trace.Job{mk(3, 2, 0)}},
		{name: "queued and arriving", snap: Snapshot{Queued: []*trace.Job{mk(4, 2, 0)}}, rest: []*trace.Job{mk(4, 2, 0)}},
		{name: "procs overcommitted", snap: Snapshot{Running: running(mk(1, 3, 0), mk(2, 3, 0))}},
		{name: "mem overcommitted", mem: 10, snap: Snapshot{Running: running(mk(1, 1, 6), mk(2, 1, 6))}},
	} {
		tr := &trace.Trace{Name: "restore", Procs: 4, Mem: c.mem, Jobs: c.rest}
		if _, err := NewEngineFromSnapshot(tr, cfg, c.snap); err == nil {
			t.Errorf("%s: snapshot accepted", c.name)
		}
	}
	// The same jobs under distinct IDs and within the machine load and run.
	tr := &trace.Trace{Name: "restore", Procs: 4, Mem: 10, Jobs: []*trace.Job{mk(5, 2, 1)}}
	snap := Snapshot{Running: running(mk(1, 1, 6), mk(2, 3, 4)), Queued: []*trace.Job{mk(3, 2, 0), mk(4, 2, 0)}}
	e, err := NewEngineFromSnapshot(tr, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	e.RunToCompletion()
	if len(e.Records()) != 3 {
		t.Fatalf("%d records after the restore, want 3", len(e.Records()))
	}
}
