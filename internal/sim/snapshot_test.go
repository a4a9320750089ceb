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
			if !a.RunUntil(horizon) {
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

// TestRunUntilCompletes pins RunUntil's return contract: false once the
// replay has drained, true while events remain past the horizon.
func TestRunUntilCompletes(t *testing.T) {
	tr := trace.SyntheticSDSCSP2(200, 1)
	e, err := NewEngine(tr.Clone(), Config{Policy: sched.FCFS{}, Backfiller: backfill.NewEASY(backfill.RequestTime{})})
	if err != nil {
		t.Fatal(err)
	}
	if !e.RunUntil(0) {
		t.Fatal("RunUntil(0) drained a 200-job trace")
	}
	if e.RunUntil(1 << 62) {
		t.Fatal("RunUntil(max) reports pending events after draining")
	}
	if len(e.Records()) != 200 {
		t.Fatalf("%d records after full drain, want 200", len(e.Records()))
	}
}
