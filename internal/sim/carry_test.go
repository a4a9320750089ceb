package sim

import (
	"fmt"
	"testing"

	"repro/internal/backfill"
	"repro/internal/lublin"
	"repro/internal/sched"
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
// engine a journal can come from: replays, a snapshot restore, and two live
// engines with injects and cancels of queued jobs and heads, the second
// crowded. A replay behind a backfiller that lags until its journal entries
// are dropped is the fifth family. Each family must both carry and rebuild,
// so neither path passes vacuously.
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
	for _, family := range []string{"replay", "restore", "live", "crowded", "lagging"} {
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

// TestConservativeCarryRates pins how often conservative backfilling carries
// its plan on the rlbf-sim conservative rows at seed 1 (the traces and
// estimators `rlbf-sim -backfill conservative` uses). The round counts are
// the schedules' and must not move; a carried round is the cheap one, so
// each row must carry at least as many rounds as the plan did when every
// carried round compared the whole plan with the queue. The reordered rows
// (WFP3, aging) carry through a re-sort that leaves the order as it was;
// rebuilding on every reorder instead would multiply their rebuilds. The
// Lublin-Huge row takes about a second and is skipped under -short.
func TestConservativeCarryRates(t *testing.T) {
	const seed = 1 // rlbf-sim's default; each workload offsets it as experiments.ResolveTrace does
	rt, ar := backfill.RequestTime{}, backfill.ActualRuntime{}
	rows := []struct {
		name            string
		tr              func() *trace.Trace
		policy          string
		scn             sched.Scenario
		est             backfill.Estimator
		rounds, carried int
		long            bool
	}{
		{name: "hpc2n 10K FCFS", tr: func() *trace.Trace { return trace.SyntheticHPC2N(10000, seed+2) },
			policy: "FCFS", est: rt, rounds: 18417, carried: 18417 - 9657},
		{name: "sdsc-sp2 10K FCFS", tr: func() *trace.Trace { return trace.SyntheticSDSCSP2(10000, seed+1) },
			policy: "FCFS", est: rt, rounds: 15974, carried: 15974 - 8350},
		{name: "hpc2n 10K WFP3", tr: func() *trace.Trace { return trace.SyntheticHPC2N(10000, seed+2) },
			policy: "WFP3", est: rt, rounds: 18204, carried: 18204 - 11960},
		{name: "sdsc-sp2 10K SJF", tr: func() *trace.Trace { return trace.SyntheticSDSCSP2(10000, seed+1) },
			policy: "SJF", est: rt, rounds: 15193, carried: 15193 - 13987},
		{name: "sdsc-sp2 10K F1", tr: func() *trace.Trace { return trace.SyntheticSDSCSP2(10000, seed+1) },
			policy: "F1", est: rt, rounds: 18823, carried: 18823 - 18785},
		{name: "hpc2n 5K starvation-bound 2", tr: func() *trace.Trace { return trace.SyntheticHPC2N(5000, seed+2) },
			policy: "FCFS", scn: sched.Scenario{StarvationBound: 2}, est: rt, rounds: 12496, carried: 12496 - 5050},
		{name: "lublin-huge 100K FCFS", tr: func() *trace.Trace { return lublin.Huge(0, 0, 0).Generate(100000, seed+5) },
			policy: "FCFS", est: ar, rounds: 134767, carried: 134767 - 91, long: true},
	}
	for _, row := range rows {
		if row.long && testing.Short() {
			t.Logf("%s: skipped under -short", row.name)
			continue
		}
		policy, err := sched.ByNameExtended(row.policy)
		if err != nil {
			t.Fatal(err)
		}
		pr := &planRounds{inner: backfill.NewConservative(row.est)}
		if _, err := Run(row.tr(), Config{Policy: policy, Scenario: row.scn, Backfiller: pr}); err != nil {
			t.Fatal(err)
		}
		rounds := pr.carried + pr.rebuilt
		t.Logf("%s: %d rounds, %d carried, %d rebuilt", row.name, rounds, pr.carried, pr.rebuilt)
		if rounds != row.rounds || pr.carried < row.carried {
			t.Errorf("%s: %d rounds with %d carried, want %d rounds with at least %d carried",
				row.name, rounds, pr.carried, row.rounds, row.carried)
		}
	}
}
