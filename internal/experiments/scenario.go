package experiments

import (
	"fmt"
	"io"

	"repro/internal/backfill"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/trace"
)

// DefaultScenario is the enriched-semantics configuration the scenario
// experiment defaults to: priority tiers honoured, with a starvation bound of
// 4x the requested runtime (kube-batch's StarvationThreshold shape — a job
// whose wait reaches four times its request becomes blocking).
func DefaultScenario() sched.Scenario {
	return sched.Scenario{Priorities: true, StarvationBound: 4}
}

// scenarioEnrichSpec is the workload enrichment the scenario experiment uses:
// proportional-with-lognormal-spread memory demands on a machine provisioned
// at the default per-processor capacity, and three geometric priority tiers.
func scenarioEnrichSpec(seed uint64) trace.EnrichSpec {
	return trace.EnrichSpec{MemDist: trace.MemDistProp, PriorityTiers: 3, Seed: seed}
}

// ScenarioWorkloads returns the archive surrogates (SDSC-SP2, HPC2N) enriched
// with memory demands and priority tiers — the prioritized procs+mem variants
// the scenario experiment schedules. Enrichment is deterministic in (n, seed),
// and the "+sc" trace names keep zoo models distinct from the classic ones.
func ScenarioWorkloads(n int, seed uint64) ([]*trace.Trace, error) {
	spec := scenarioEnrichSpec(seed)
	base := []*trace.Trace{
		trace.SyntheticSDSCSP2(n, seed+1),
		trace.SyntheticHPC2N(n, seed+2),
	}
	out := make([]*trace.Trace, len(base))
	for i, t := range base {
		e, err := trace.Enrich(t, spec)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// ScenarioCompare evaluates the enriched-scenario semantics end to end: each
// prioritized procs+mem surrogate is scheduled under FCFS/SJF/WFP3 crossed
// with EASY and conservative backfilling — every engine running with
// priority tiers and the starvation bound active — plus an RL agent trained
// directly on the enriched workload (FCFS base, the paper's transfer choice).
// Columns are mean bounded slowdowns under the eval protocol, so the table
// reads like Table 4 restricted to the scenario dimensions.
func ScenarioCompare(sc Scale, zoo *Zoo, log io.Writer) (*Table, error) {
	scn := sc.Eval.Scn
	if !scn.Enabled() {
		scn = DefaultScenario()
	}
	sc.Eval.Scn = scn

	workloads, err := ScenarioWorkloads(sc.TraceJobs, sc.Seed)
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		Title: "Scenario: bsld on prioritized procs+mem workloads (tiers + starvation bound)",
		Header: []string{"trace", "FCFS+EASY", "FCFS+CONS", "SJF+EASY", "SJF+CONS",
			"WFP3+EASY", "WFP3+CONS", "FCFS+RLBF"},
		Notes: []string{
			fmt.Sprintf("scale=%s: eval %d sequences x %d jobs, seed %d",
				sc.Name, sc.Eval.Sequences, sc.Eval.SeqLen, sc.Eval.Seed),
			fmt.Sprintf("scenario: priorities=%v starvation-bound=%.1f; mem dist %s, %d tiers",
				scn.Priorities, scn.StarvationBound, trace.MemDistProp, scenarioEnrichSpec(sc.Seed).PriorityTiers),
		},
	}

	if err := zoo.Prefetch(sc, log, []sched.Policy{sched.FCFS{}}, workloads); err != nil {
		return nil, err
	}

	cols := scenarioColumns(sc, zoo, log)
	grid, err := runGrid(sc, len(workloads), len(cols), func(wi, ci int) (string, error) {
		return cols[ci].eval(workloads[wi])
	})
	if err != nil {
		return nil, err
	}
	for wi, tr := range workloads {
		tbl.Rows = append(tbl.Rows, append([]string{tr.Name}, grid[wi]...))
	}
	return tbl, nil
}

// scenarioColumns builds the column evaluators: EASY and conservative
// backfilling per base policy, both reading the scenario from the engine, and
// the RL agent. Every cell constructs its own backfiller — they carry scratch
// state.
func scenarioColumns(sc Scale, zoo *Zoo, log io.Writer) []table4Column {
	heuristic := func(pol sched.Policy, mk func(est backfill.Estimator) backfill.Backfiller) table4Column {
		return table4Column{eval: func(tr *trace.Trace) (string, error) {
			mean, _, err := core.EvaluateStrategy(tr, pol, mk(Estimator(tr)), sc.Eval)
			if err != nil {
				return "", err
			}
			return f2(mean), nil
		}}
	}
	var cols []table4Column
	for _, pol := range []sched.Policy{sched.FCFS{}, sched.SJF{}, sched.WFP3{}} {
		cols = append(cols,
			heuristic(pol, func(est backfill.Estimator) backfill.Backfiller { return backfill.NewEASY(est) }),
			heuristic(pol, func(est backfill.Estimator) backfill.Backfiller { return backfill.NewConservative(est) }))
	}
	cols = append(cols, table4Column{eval: func(tr *trace.Trace) (string, error) {
		agent, _, err := zoo.Get(sched.FCFS{}, tr, sc, log)
		if err != nil {
			return "", err
		}
		mean, _, err := core.EvaluateAgent(agent, tr, sched.FCFS{}, sc.Eval)
		if err != nil {
			return "", err
		}
		return f2(mean), nil
	}})
	return cols
}
