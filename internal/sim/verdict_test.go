package sim

import (
	"fmt"
	"testing"

	"repro/internal/backfill"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
)

// freshEASY is the cache-free reference for EASY: a new instance, with no
// reservation index and no verdict, for every round.
type freshEASY struct{ proto *backfill.EASY }

func (f freshEASY) Name() string { return "fresh-" + f.proto.Name() }

func (f freshEASY) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	f.proto.Fresh().Backfill(st, head, queue)
}

// lagging sits its backfiller out until the journal has dropped entries it
// has not read, lets it run for 100 rounds, and sits it out again, counting
// the catch-ups that found their cursor trimmed away. Every engine starts
// with a running stretch.
type lagging struct {
	inner   backfill.Backfiller
	st      backfill.State
	seen    backfill.Cursor
	active  int
	trimmed int
}

func (l *lagging) Name() string { return l.inner.Name() }

func (l *lagging) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	if st != l.st {
		l.st, l.active = st, 100
	}
	if l.active == 0 {
		if _, ok := st.Journal().Since(l.seen); ok {
			return
		}
		l.trimmed++
		l.active = 100
	}
	l.active--
	l.inner.Backfill(st, head, queue)
	l.seen = st.Journal().Cursor()
}

// verdictRounds counts the rounds a verdict can answer: the previous round
// of the same backfiller ran on the same head, and the journal shows only
// arrivals since. afterStarts counts those whose previous round started jobs
// itself, the rounds that must not reuse its in-round reservation.
type verdictRounds struct {
	inner       backfill.Backfiller
	after       backfill.Cursor
	head        *trace.Job
	started     bool
	eligible    int
	afterStarts int
}

func (v *verdictRounds) Name() string { return v.inner.Name() }

func (v *verdictRounds) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	jr := st.Journal()
	if changes, ok := jr.Since(v.after); ok && head == v.head {
		onlyArrivals := true
		for _, c := range changes {
			onlyArrivals = onlyArrivals && c.Kind == backfill.Arrived
		}
		if onlyArrivals {
			v.eligible++
			if v.started {
				v.afterStarts++
			}
		}
	}
	before := jr.Cursor()
	v.inner.Backfill(st, head, queue)
	v.after, v.head = jr.Cursor(), head
	v.started = v.after != before
}

// engineWalk drives one backfiller through every kind of engine its journal
// can come from — a replay, the same jobs again, a snapshot restore, and a
// live engine fed by Inject and thinned by Cancel (the head included) — and
// returns each engine's records. The backfiller is carried from engine to
// engine.
func engineWalk(t *testing.T, tr *trace.Trace, cfg Config) [][]metrics.Record {
	t.Helper()
	var out [][]metrics.Record
	for _, w := range engineKinds {
		out = append(out, w.run(t, tr, cfg))
	}
	return out
}

// engineKinds are engineWalk's engines, in order.
var engineKinds = []struct {
	name string
	run  func(t *testing.T, tr *trace.Trace, cfg Config) []metrics.Record
}{
	{"replay", replayWalk},
	{"replay", replayWalk},
	{"restore", restoreWalk},
	{"live", liveWalk},
}

func replayWalk(t *testing.T, tr *trace.Trace, cfg Config) []metrics.Record {
	t.Helper()
	return mustRun(t, tr.Clone(), cfg).Records
}

// restoreWalk replays up to the middle job's submit, snapshots, and finishes
// on an engine restored from the snapshot.
func restoreWalk(t *testing.T, tr *trace.Trace, cfg Config) []metrics.Record {
	t.Helper()
	work := tr.Clone()
	a, err := NewEngine(work, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.RunUntil(work.Jobs[len(work.Jobs)/2].Submit) {
		t.Fatal("replay drained before the cut")
	}
	snap := a.Snapshot()
	rest := &trace.Trace{Name: work.Name, Procs: work.Procs, Mem: work.Mem, Jobs: work.Jobs[snap.NextArrival:]}
	b, err := NewEngineFromSnapshot(rest, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	b.RunToCompletion()
	return append(append([]metrics.Record(nil), a.Records()...), b.Records()...)
}

// liveWalk injects the jobs into a live engine one by one, cancelling every
// seventh job's third predecessor and, every eleventh, the queue's head.
func liveWalk(t *testing.T, tr *trace.Trace, cfg Config) []metrics.Record {
	t.Helper()
	live, err := NewLiveEngine(tr.Name, tr.Procs, tr.Mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var queued []*trace.Job
	for i, j := range tr.Jobs {
		if j.Submit > 0 {
			live.RunUntil(j.Submit - 1)
		}
		if err := live.Inject(j.Clone()); err != nil {
			t.Fatal(err)
		}
		switch {
		case i%7 == 6:
			live.Cancel(tr.Jobs[i-3].ID)
		case i%11 == 10:
			if queued = live.AppendQueued(queued[:0]); len(queued) > 0 {
				live.Cancel(queued[0].ID)
			}
		}
	}
	live.RunToCompletion()
	return live.Records()
}

// TestEASYVerdictDifferential requires EASY — with its journal-fed
// reservation index and the verdict that starts arrival-only rounds at the
// first arrival, after rounds that started jobs or not — to
// schedule exactly as a fresh EASY per round does, across base policies
// (static and time-varying), both candidate orders, estimators that are
// exact, pessimistic, noisy and optimistic, the memory dimension, priority
// tiers, aging, live Inject/Cancel, snapshot restore, one backfiller reused
// across engines, and a backfiller that lags until its journal entries are
// dropped.
func TestEASYVerdictDifferential(t *testing.T) {
	plain := trace.SyntheticSDSCSP2(600, 3)
	enriched := mustEnrich(t, trace.SyntheticSDSCSP2(600, 5), trace.EnrichSpec{MemDist: trace.MemDistProp, PriorityTiers: 3, Seed: 11})
	estimators := []backfill.Estimator{backfill.RequestTime{}, backfill.ActualRuntime{}, backfill.Noisy{Level: 0.4, Seed: 2}, underEstimator{}}
	scenarios := []sched.Scenario{{}, {Priorities: true}, {StarvationBound: 2}}
	eligible, afterStarts, trimmed := 0, 0, 0
	for ti, tr := range []*trace.Trace{plain, enriched} {
		for _, pol := range []sched.Policy{sched.FCFS{}, sched.SJF{}, sched.WFP3{}} {
			for _, order := range []backfill.CandidateOrder{backfill.PolicyOrder, backfill.SJFOrder} {
				for ei, est := range estimators {
					scn := scenarios[(ti+ei)%len(scenarios)]
					proto := &backfill.EASY{Est: est, Order: order, Scn: scn}
					label := fmt.Sprintf("trace %d/%s/%s/%s", ti, pol.Name(), proto.Name(), scnLabel(scn))
					opt := &verdictRounds{inner: proto.Fresh()}
					want := engineWalk(t, tr, Config{Policy: pol, Scenario: scn, Backfiller: freshEASY{proto}})
					got := engineWalk(t, tr, Config{Policy: pol, Scenario: scn, Backfiller: opt})
					for k := range want {
						diffRecords(t, fmt.Sprintf("%s/engine %d", label, k), want[k], got[k])
					}
					eligible += opt.eligible
					afterStarts += opt.afterStarts

					lagRef, lagOpt := &lagging{inner: freshEASY{proto}}, &lagging{inner: proto.Fresh()}
					want = engineWalk(t, tr, Config{Policy: pol, Scenario: scn, Backfiller: lagRef})
					got = engineWalk(t, tr, Config{Policy: pol, Scenario: scn, Backfiller: lagOpt})
					for k := range want {
						diffRecords(t, fmt.Sprintf("%s/lagging/engine %d", label, k), want[k], got[k])
					}
					trimmed += lagOpt.trimmed
				}
			}
		}
	}
	if eligible < 5000 || afterStarts < 5000 || trimmed < 100 {
		t.Fatalf("%d rounds could be answered by a verdict (%d after a round that started jobs), %d catch-ups found their cursor trimmed: the walk is not exercising the verdict",
			eligible, afterStarts, trimmed)
	}
	t.Logf("%d verdict-eligible rounds (%d after a round that started jobs), %d trimmed catch-ups", eligible, afterStarts, trimmed)
}
