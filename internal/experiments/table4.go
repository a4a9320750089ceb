package experiments

import (
	"fmt"
	"io"

	"repro/internal/backfill"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Table4 reproduces the headline result (§4.3): for each workload, the mean
// bounded slowdown over Eval.Sequences random Eval.SeqLen-job sequences under
// FCFS/SJF with EASY, EASY-AR and RLBackfilling, plus the WFP3+EASY and
// F1+EASY reference columns. RLBF models are trained per (policy, trace)
// pair, exactly as the paper's protocol implies (Table 5's diagonals match
// Table 4). The required models are trained first, one at a time, then
// every (workload, column) evaluation runs as an independent cell and the
// table assembles by index.
//
// Expected shape (paper): RLBF beats EASY(RT) on every trace and beats
// EASY-AR on the archive traces with FCFS; EASY columns are "-" for the
// Lublin traces, which have no user request times.
func Table4(sc Scale, zoo *Zoo, log io.Writer) (*Table, error) {
	workloads := Workloads(sc.TraceJobs, sc.Seed)
	tbl := &Table{
		Title: "Table 4: bsld of base policy + backfilling strategy",
		Header: []string{"trace", "FCFS+EASY", "FCFS+EASY-AR", "FCFS+RLBF",
			"SJF+EASY", "SJF+EASY-AR", "SJF+RLBF", "WFP3+EASY", "F1+EASY"},
		Notes: []string{
			fmt.Sprintf("scale=%s: eval %d sequences x %d jobs, seed %d",
				sc.Name, sc.Eval.Sequences, sc.Eval.SeqLen, sc.Eval.Seed),
			"paper shape: RLBF < EASY everywhere; RLBF < EASY-AR on SDSC-SP2/HPC2N with FCFS",
		},
	}

	// Train every model the RLBF columns will evaluate before the cell grid
	// runs, so evaluation cells only ever hit the zoo cache.
	if err := zoo.Prefetch(sc, log, []sched.Policy{sched.FCFS{}, sched.SJF{}}, workloads); err != nil {
		return nil, err
	}

	cols := table4Columns(sc, zoo, log)
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

// table4Column is one column of Table 4: an evaluation of one workload under
// one (policy, strategy) pairing.
type table4Column struct {
	eval func(tr *trace.Trace) (string, error)
}

// table4Columns builds the eight column evaluators. Each cell constructs its
// own backfiller (they carry scratch state) and resolves the RL model from
// the already-populated zoo.
func table4Columns(sc Scale, zoo *Zoo, log io.Writer) []table4Column {
	heuristic := func(pol sched.Policy, mk func() backfill.Backfiller, rtOnly bool) table4Column {
		return table4Column{eval: func(tr *trace.Trace) (string, error) {
			// EASY on user request time: undefined for the Lublin traces.
			if rtOnly && isSynthetic(tr) {
				return "-", nil
			}
			mean, _, err := core.EvaluateStrategy(tr, pol, mk(), sc.Eval)
			if err != nil {
				return "", err
			}
			return f2(mean), nil
		}}
	}
	rl := func(pol sched.Policy) table4Column {
		return table4Column{eval: func(tr *trace.Trace) (string, error) {
			agent, _, err := zoo.Get(pol, tr, sc, log)
			if err != nil {
				return "", err
			}
			mean, _, err := core.EvaluateAgent(agent, tr, pol, sc.Eval)
			if err != nil {
				return "", err
			}
			return f2(mean), nil
		}}
	}
	// WFP3+EASY and F1+EASY reference columns (request time where available).
	ref := func(pol sched.Policy) table4Column {
		return table4Column{eval: func(tr *trace.Trace) (string, error) {
			var est backfill.Estimator = backfill.RequestTime{}
			if isSynthetic(tr) {
				est = backfill.ActualRuntime{}
			}
			mean, _, err := core.EvaluateStrategy(tr, pol, backfill.NewEASY(est), sc.Eval)
			if err != nil {
				return "", err
			}
			return f2(mean), nil
		}}
	}

	var cols []table4Column
	for _, pol := range []sched.Policy{sched.FCFS{}, sched.SJF{}} {
		pol := pol
		cols = append(cols,
			heuristic(pol, func() backfill.Backfiller { return backfill.NewEASY(backfill.RequestTime{}) }, true),
			heuristic(pol, func() backfill.Backfiller { return backfill.NewEASY(backfill.ActualRuntime{}) }, false),
			rl(pol),
		)
	}
	cols = append(cols, ref(sched.WFP3{}), ref(sched.F1{}))
	return cols
}
