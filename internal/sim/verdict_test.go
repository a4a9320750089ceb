package sim

import (
	"cmp"
	"fmt"
	"slices"
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
// finishRounds counts the rounds the live list can answer, whose journal
// shows finishes and otherwise only arrivals under the same head, and
// canceled the cancels of waiting jobs behind the head that went by between
// two rounds whose journal shows nothing else but finishes and arrivals.
// Across the finish and arrival rounds under one head it asserts that the
// fresh horizon (shadow − now) never grows: the list needs no horizon check
// because of that.
type verdictRounds struct {
	t            *testing.T
	est          backfill.Estimator
	inner        backfill.Backfiller
	after        backfill.Cursor
	head         *trace.Job
	horizon      int64
	started      bool
	eligible     int
	afterStarts  int
	finishRounds int
	canceled     int
	deepest      int // the longest queue behind a head
}

func (v *verdictRounds) Name() string { return v.inner.Name() }

func (v *verdictRounds) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	jr := st.Journal()
	res := backfill.ComputeReservation(st, head, v.est)
	horizon := res.Shadow - st.Now()
	if changes, ok := jr.Since(v.after); ok && head == v.head {
		var kinds [backfill.Reordered + 1]int
		for _, c := range changes {
			kinds[c.Kind]++
		}
		goneBy := kinds[backfill.Finished] + kinds[backfill.Arrived]
		switch {
		case goneBy+kinds[backfill.Canceled] < len(changes):
			// a start or a reorder went by: no round for the verdict or the list
		case kinds[backfill.Canceled] > 0:
			v.canceled += kinds[backfill.Canceled]
		case kinds[backfill.Finished] > 0:
			v.finishRounds++
		default:
			v.eligible++
			if v.started {
				v.afterStarts++
			}
		}
		if goneBy == len(changes) && horizon > v.horizon {
			v.t.Fatalf("at %d the horizon under head %d grew from %d to %d across finishes and arrivals",
				st.Now(), head.ID, v.horizon, horizon)
		}
	}
	v.deepest = max(v.deepest, len(queue))
	before := jr.Cursor()
	v.inner.Backfill(st, head, queue)
	v.after, v.head, v.horizon = jr.Cursor(), head, horizon
	v.started = v.after != before
}

// engineWalk drives one backfiller through every kind of engine its journal
// can come from — a replay, the same jobs again, a snapshot restore, and two
// live engines fed by Inject and thinned by Cancel (the head included), the
// second crowded — and returns each engine's records. The backfiller is carried from engine to
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
	{"crowded", crowdedWalk},
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
	if !runUntil(a, work.Jobs[len(work.Jobs)/2].Submit) {
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
	return injectWalk(t, tr, cfg, 1)
}

// crowdedWalk is liveWalk on a machine eight times as busy: every submit
// time is divided by 8, so the waiting queue runs dozens of jobs deep. On
// top of liveWalk's cancels, before every fifth injection, while more than
// 16 jobs wait, it cancels the narrowest job in the back half of the queue,
// the one there likeliest to fit once processors free up.
func crowdedWalk(t *testing.T, tr *trace.Trace, cfg Config) []metrics.Record {
	t.Helper()
	return injectWalk(t, tr, cfg, 8)
}

// injectWalk feeds the jobs to a live engine with their submit times divided
// by squeeze; a squeeze above 1 adds crowdedWalk's cancels deep in the queue.
func injectWalk(t *testing.T, tr *trace.Trace, cfg Config, squeeze int64) []metrics.Record {
	t.Helper()
	live, err := NewLiveEngine(tr.Name, tr.Procs, tr.Mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var queued []*trace.Job
	for i, j := range tr.Jobs {
		if squeeze > 1 && i%5 == 0 {
			// Before the clock moves on, so finishes come next.
			if queued = live.AppendQueued(queued[:0]); len(queued) > 16 {
				back := queued[len(queued)/2:]
				live.Cancel(slices.MinFunc(back, func(a, b *trace.Job) int { return cmp.Compare(a.Procs, b.Procs) }).ID)
			}
		}
		j = j.Clone()
		j.Submit /= squeeze
		if j.Submit > 0 {
			runUntil(live, j.Submit-1)
		}
		if err := live.Inject(j); err != nil {
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
// reservation index, the verdict that starts arrival-only rounds at the
// first arrival, after rounds that started jobs or not, and the live list
// that answers rounds after finishes — to schedule exactly as a fresh EASY
// per round does, across base policies (static and time-varying), both
// candidate orders, estimators that are exact, pessimistic, noisy and
// optimistic, the memory dimension, priority tiers, aging, live
// Inject/Cancel (of the head and of jobs deep in the queue), snapshot
// restore, one backfiller reused across engines, and a backfiller that lags
// until its journal entries are dropped.
func TestEASYVerdictDifferential(t *testing.T) {
	plain := trace.SyntheticSDSCSP2(600, 3)
	enriched := mustEnrich(t, trace.SyntheticSDSCSP2(600, 5), trace.EnrichSpec{MemDist: trace.MemDistProp, PriorityTiers: 3, Seed: 11})
	estimators := []backfill.Estimator{backfill.RequestTime{}, backfill.ActualRuntime{}, backfill.Noisy{Level: 0.4, Seed: 2}, underEstimator{}}
	scenarios := []sched.Scenario{{}, {Priorities: true}, {StarvationBound: 2}}
	eligible, afterStarts, finishRounds, canceled, trimmed := 0, 0, 0, 0, 0
	deepest, completed := map[string]int{}, map[string]int{}
	for ti, tr := range []*trace.Trace{plain, enriched} {
		for _, pol := range []sched.Policy{sched.FCFS{}, sched.SJF{}, sched.WFP3{}} {
			for _, order := range []backfill.CandidateOrder{backfill.PolicyOrder, backfill.SJFOrder} {
				for ei, est := range estimators {
					scn := scenarios[(ti+ei)%len(scenarios)]
					proto := &backfill.EASY{Est: est, Order: order}
					label := fmt.Sprintf("trace %d/%s/%s/%s", ti, pol.Name(), proto.Name(), scnLabel(scn))
					ref := Config{Policy: pol, Scenario: scn, Backfiller: freshEASY{proto}}
					opt := &verdictRounds{t: t, est: est, inner: proto.Fresh()}
					for _, kind := range engineKinds {
						want := kind.run(t, tr, ref)
						cfg := ref
						cfg.Backfiller = opt
						got := kind.run(t, tr, cfg)
						diffRecords(t, label+"/"+kind.name, want, got)
						deepest[kind.name] = max(deepest[kind.name], opt.deepest)
						completed[kind.name] += len(got)
						opt.deepest = 0
					}
					eligible += opt.eligible
					afterStarts += opt.afterStarts
					finishRounds += opt.finishRounds
					canceled += opt.canceled

					lagRef, lagOpt := &lagging{inner: freshEASY{proto}}, &lagging{inner: proto.Fresh()}
					want := engineWalk(t, tr, Config{Policy: pol, Scenario: scn, Backfiller: lagRef})
					got := engineWalk(t, tr, Config{Policy: pol, Scenario: scn, Backfiller: lagOpt})
					for k := range want {
						diffRecords(t, fmt.Sprintf("%s/lagging/engine %d", label, k), want[k], got[k])
					}
					trimmed += lagOpt.trimmed
				}
			}
		}
	}
	if eligible < 5000 || afterStarts < 5000 || finishRounds < 5000 || canceled < 200 || trimmed < 100 || deepest["crowded"] < 30 {
		t.Fatalf("%d rounds could be answered by a verdict (%d after a round that started jobs), %d by the live list, %d cancels went by between finish rounds, %d catch-ups found their cursor trimmed, the crowded live queue reached %d: the walk is not exercising the verdict",
			eligible, afterStarts, finishRounds, canceled, trimmed, deepest["crowded"])
	}
	t.Logf("%d verdict-eligible rounds (%d after a round that started jobs), %d finish rounds, %d cancels between them, %d trimmed catch-ups",
		eligible, afterStarts, finishRounds, canceled, trimmed)
	for _, family := range []string{"replay", "restore", "live", "crowded"} {
		t.Logf("%s: %d jobs completed, at most %d waiting behind a head", family, completed[family], deepest[family])
	}
}
