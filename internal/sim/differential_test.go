package sim

// This file pins the engine against internal/oracle, the naive per-event-time
// reference simulator: every replay below runs through both and must produce
// the same records (same jobs, same starts, same ends, in the same order).
// The classic kernel is the zero-scenario row on memless traces; the enriched
// rows add memory vectors, priority tiers and aging.

import (
	"testing"

	"repro/internal/backfill"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

// bfPair is one backfilling strategy in both implementations. heavy marks
// conservative backfilling, whose oracle is O(n^2) or worse per event.
type bfPair struct {
	name  string
	heavy bool
	est   backfill.Estimator
	ref   oracle.Backfiller
	opt   func() backfill.Backfiller
}

func bfPairs() []bfPair {
	rt, ar := backfill.RequestTime{}, backfill.ActualRuntime{}
	easy := func(est backfill.Estimator, order backfill.CandidateOrder) func() backfill.Backfiller {
		return func() backfill.Backfiller { return &backfill.EASY{Est: est, Order: order} }
	}
	return []bfPair{
		{name: "none", est: rt, opt: func() backfill.Backfiller { return nil }},
		{name: "easy-rt", est: rt, ref: oracle.EASY(false), opt: easy(rt, backfill.PolicyOrder)},
		{name: "easy-ar", est: ar, ref: oracle.EASY(false), opt: easy(ar, backfill.PolicyOrder)},
		{name: "easy-rt-sjf", est: rt, ref: oracle.EASY(true), opt: easy(rt, backfill.SJFOrder)},
		{name: "cons-rt", heavy: true, est: rt, ref: oracle.Conservative(),
			opt: func() backfill.Backfiller { return backfill.NewConservative(rt) }},
	}
}

// diffRow is one row of the differential table: every trace replayed under
// every scenario x policy x backfiller. Conservative backfilling replays only
// the first heavyJobs jobs of each trace when heavyJobs > 0.
type diffRow struct {
	traces    []*trace.Trace
	scenarios []sched.Scenario
	policies  []sched.Policy
	heavyJobs int
}

func runDiffRow(t *testing.T, row diffRow) {
	t.Helper()
	for _, tr := range row.traces {
		for _, scn := range row.scenarios {
			for _, p := range row.policies {
				for _, pair := range bfPairs() {
					run := tr.Clone()
					if pair.heavy && row.heavyJobs > 0 && len(run.Jobs) > row.heavyJobs {
						run.Jobs = run.Jobs[:row.heavyJobs]
					}
					label := tr.Name + "/" + p.Name() + "/" + pair.name + "/" + scnLabel(scn)
					want := oracle.Run(run.Clone(), p, scn, pair.est.Estimate, pair.ref)
					res, err := Run(run, Config{Policy: p, Scenario: scn, Backfiller: pair.opt()})
					if err != nil {
						t.Fatal(err)
					}
					diffRecords(t, label, want, res.Records)
				}
			}
		}
	}
}

func diffRecords(t *testing.T, label string, want, got []metrics.Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: record count %d (reference) vs %d (optimised)", label, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Job.ID != g.Job.ID || w.Start != g.Start || w.End != g.End {
			t.Fatalf("%s: record %d differs: reference job %d [%d,%d), optimised job %d [%d,%d)",
				label, i, w.Job.ID, w.Start, w.End, g.Job.ID, g.Start, g.End)
		}
	}
}

func scnLabel(s sched.Scenario) string {
	switch {
	case s.Priorities && s.Aging():
		return "pri+aging"
	case s.Priorities:
		return "pri"
	case s.Aging():
		return "aging"
	}
	return "off"
}

func mustEnrich(t *testing.T, tr *trace.Trace, spec trace.EnrichSpec) *trace.Trace {
	t.Helper()
	out, err := trace.Enrich(tr, spec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// randomTrace is a small bursty trace: a third of the jobs share a submit
// time, so queues run deep and many events land on one instant. With
// enriched set, half the machines get a memory dimension and every job a
// random tier.
func randomTrace(seed uint64, name string, maxJobs int, enriched bool) (*trace.Trace, *stats.RNG) {
	r := stats.NewRNG(seed)
	procs := []int{8, 32, 100}[r.Intn(3)]
	n := r.Intn(maxJobs) + 10
	tr := &trace.Trace{Name: name, Procs: procs}
	if enriched && r.Intn(2) == 0 {
		tr.Mem = procs * 100
	}
	var submit int64
	for i := 0; i < n; i++ {
		if r.Intn(3) > 0 {
			submit += r.Int63n(150)
		}
		run := r.Int63n(500) + 1
		req := run + r.Int63n(500)
		j := &trace.Job{ID: i + 1, Submit: submit, Runtime: run, Request: req, Procs: r.Intn(procs) + 1}
		if enriched {
			j.Priority = int32(r.Intn(3))
		}
		if tr.Mem > 0 {
			j.Mem = r.Intn(tr.Mem) + 1
		}
		tr.Jobs = append(tr.Jobs, j)
	}
	return tr, r
}

// TestKernelDifferential is the classic kernel's row: memless traces, the
// zero scenario, every Table 3 policy and every backfilling strategy.
func TestKernelDifferential(t *testing.T) {
	runDiffRow(t, diffRow{
		traces:    []*trace.Trace{trace.SyntheticSDSCSP2(400, 7), trace.SyntheticHPC2N(300, 13)},
		scenarios: []sched.Scenario{{}},
		policies:  sched.All(),
		heavyJobs: 120,
	})
}

// TestKernelDifferentialRandom fuzzes the kernel row over random bursty
// traces, where incremental queue and running-set maintenance could diverge.
func TestKernelDifferentialRandom(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		tr, _ := randomTrace(seed, "fuzz", 80, false)
		runDiffRow(t, diffRow{traces: []*trace.Trace{tr}, scenarios: []sched.Scenario{{}}, policies: sched.All()})
	}
}

// TestScenarioDifferential replays enriched traces (memory vectors, priority
// tiers) under every scenario. The zero scenario on an enriched trace
// exercises the memory dimension alone; the others layer tiers and aging on
// top.
func TestScenarioDifferential(t *testing.T) {
	runDiffRow(t, diffRow{
		traces: []*trace.Trace{
			// Memory + tiers: the full scenario surface.
			mustEnrich(t, trace.SyntheticSDSCSP2(260, 7),
				trace.EnrichSpec{MemDist: trace.MemDistProp, PriorityTiers: 3, Seed: 11}),
			// Anti-correlated memory, no tiers: memory pressure alone.
			mustEnrich(t, trace.SyntheticHPC2N(220, 13),
				trace.EnrichSpec{MemDist: trace.MemDistUniform, Seed: 17}),
			// Tiers only, no memory: priority ordering on the scalar machine.
			mustEnrich(t, trace.SyntheticSDSCSP2(200, 21),
				trace.EnrichSpec{PriorityTiers: 4, Seed: 23}),
		},
		scenarios: []sched.Scenario{
			{},
			{Priorities: true},
			{StarvationBound: 2},
			{Priorities: true, StarvationBound: 4},
		},
		policies:  []sched.Policy{sched.FCFS{}, sched.WFP3{}},
		heavyJobs: 100,
	})
}

// TestScenarioDifferentialRandom fuzzes the enriched rows over random bursty
// traces with random memory demands, tiers and scenario: starvation
// transitions land between events.
func TestScenarioDifferentialRandom(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		tr, r := randomTrace(seed, "fuzz-scn", 60, true)
		scn := sched.Scenario{Priorities: r.Intn(2) == 0, StarvationBound: float64(r.Intn(3))}
		runDiffRow(t, diffRow{
			traces:    []*trace.Trace{tr},
			scenarios: []sched.Scenario{scn},
			policies:  []sched.Policy{sched.FCFS{}, sched.SJF{}, sched.WFP3{}},
		})
	}
}
