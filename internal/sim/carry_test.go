package sim

import (
	"fmt"
	"testing"

	"repro/internal/backfill"
	"repro/internal/trace"
)

// freshConservative is the carry-free reference for conservative
// backfilling: one instance that sees a closed journal, so every round
// rebuilds its plan from the running set and the queue.
type freshConservative struct{ inner *backfill.Conservative }

func (f freshConservative) Name() string { return "fresh-" + f.inner.Name() }

func (f freshConservative) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	f.inner.Backfill(&closedJournal{Engine: st.(*Engine)}, head, queue)
}

// closedJournal is an engine whose journal records nothing and rejects
// every cursor.
type closedJournal struct {
	*Engine
	closed backfill.Journal
}

func (c *closedJournal) Journal() *backfill.Journal { return &c.closed }

// planRounds counts the rounds that carried the plan and those that rebuilt
// it. A rebuild lays out the running set's spans from State.Running; a
// carried round learns everything from the journal and never reads it.
type planRounds struct {
	inner            backfill.Backfiller
	carried, rebuilt int
}

func (p *planRounds) Name() string { return p.inner.Name() }

func (p *planRounds) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	rs := &runningReads{Engine: st.(*Engine)}
	p.inner.Backfill(rs, head, queue)
	if rs.reads == 0 {
		p.carried++
	} else {
		p.rebuilt++
	}
}

// runningReads is an engine that counts the calls to Running.
type runningReads struct {
	*Engine
	reads int
}

func (r *runningReads) Running() []backfill.Running {
	r.reads++
	return r.Engine.Running()
}

// TestConservativeCarryDifferential requires conservative backfilling, which
// carries its plan from round to round, to schedule exactly as one that
// rebuilds it every round does. It runs conservativeCase's randomised matrix,
// every fourth row with an estimator below the runtimes, so running jobs
// outlive their spans and the now+1 clamp moves. It covers every kind of
// engine a journal can come from: replays, a snapshot restore, and a live
// engine with injects and cancels of queued jobs and heads. A replay behind
// a backfiller that lags until its journal entries are dropped is the
// fourth family. Each family must both carry and rebuild, so neither path
// passes vacuously.
func TestConservativeCarryDifferential(t *testing.T) {
	carried, rebuilt := map[string]int{}, map[string]int{}
	tally := func(family string, p *planRounds) {
		carried[family] += p.carried
		rebuilt[family] += p.rebuilt
	}
	trimmed := 0
	for seed := uint64(1); seed <= 240; seed++ {
		tr, est, policy, scn := conservativeCase(seed)
		if seed%4 == 0 {
			est = underEstimator{}
		}
		label := fmt.Sprintf("seed %d %s/%s/%s mem=%d", seed, policy.Name(), est.Name(), scnLabel(scn), tr.Mem)
		ref := Config{Policy: policy, Scenario: scn, Backfiller: freshConservative{backfill.NewConservative(est)}}
		opt := &planRounds{inner: backfill.NewConservative(est)}
		for _, kind := range engineKinds {
			want := kind.run(t, tr, ref)
			cfg := ref
			cfg.Backfiller = opt
			got := kind.run(t, tr, cfg)
			diffRecords(t, label+"/"+kind.name, want, got)
			tally(kind.name, opt)
			opt.carried, opt.rebuilt = 0, 0
		}

		lagRef := &lagging{inner: freshConservative{backfill.NewConservative(est)}}
		lagOpt := &lagging{inner: &planRounds{inner: backfill.NewConservative(est)}}
		want := replayWalk(t, tr, Config{Policy: policy, Scenario: scn, Backfiller: lagRef})
		got := replayWalk(t, tr, Config{Policy: policy, Scenario: scn, Backfiller: lagOpt})
		diffRecords(t, label+"/lagging", want, got)
		tally("lagging", lagOpt.inner.(*planRounds))
		trimmed += lagOpt.trimmed
	}
	for _, family := range []string{"replay", "restore", "live", "lagging"} {
		t.Logf("%s: %d carried rounds, %d rebuilds", family, carried[family], rebuilt[family])
		if carried[family] == 0 || rebuilt[family] == 0 {
			t.Errorf("%s: %d carried rounds, %d rebuilds: a path is not exercised", family, carried[family], rebuilt[family])
		}
	}
	if trimmed == 0 {
		t.Error("no lagging catch-up found its cursor trimmed away")
	}
	t.Logf("%d trimmed catch-ups", trimmed)
}
