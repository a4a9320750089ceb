package experiments

import (
	"fmt"
	"io"

	"repro/internal/backfill"
	"repro/internal/core"
	"repro/internal/sched"
)

// Table5 reproduces the generality matrix (§4.4): a model trained on trace X
// (column RL-X) is applied to every trace Y (rows), under FCFS and SJF base
// policies. The EASY and EASY-AR columns are the heuristic baselines on the
// same sequences. Models are trained first (sharing the zoo with Table 4),
// then every (base, Y, column) evaluation is an independent cell assembled
// by index.
//
// Expected shape (paper): RL-X transferred to Y still beats EASY in most
// cells, and the diagonal is not always the best column entry.
func Table5(sc Scale, zoo *Zoo, log io.Writer) (*Table, error) {
	workloads := Workloads(sc.TraceJobs, sc.Seed)
	bases := []sched.Policy{sched.FCFS{}, sched.SJF{}}
	header := []string{"trace", "EASY", "EASY-AR"}
	for _, tr := range workloads {
		header = append(header, "RL-"+tr.Name)
	}
	tbl := &Table{
		Title:  "Table 5: generality — model trained on X (columns) applied to trace Y (rows)",
		Header: header,
		Notes: []string{
			fmt.Sprintf("scale=%s: eval %d sequences x %d jobs, seed %d",
				sc.Name, sc.Eval.Sequences, sc.Eval.SeqLen, sc.Eval.Seed),
			"paper shape: transferred models beat EASY in most cells",
		},
	}

	if err := zoo.Prefetch(sc, log, bases, workloads); err != nil {
		return nil, err
	}

	// Cell grid: one row per (base policy, trace Y), with the EASY and
	// EASY-AR baselines plus one transferred model per source trace X.
	nCols := 2 + len(workloads)
	grid, err := runGrid(sc, len(bases)*len(workloads), nCols, func(r, ci int) (string, error) {
		base := bases[r/len(workloads)]
		y := workloads[r%len(workloads)]
		switch {
		case ci == 0: // EASY on user request time
			if isSynthetic(y) {
				return "-", nil
			}
			mean, _, err := core.EvaluateStrategy(y, base, backfill.NewEASY(backfill.RequestTime{}), sc.Eval)
			if err != nil {
				return "", err
			}
			return f2(mean), nil
		case ci == 1: // EASY-AR
			mean, _, err := core.EvaluateStrategy(y, base, backfill.NewEASY(backfill.ActualRuntime{}), sc.Eval)
			if err != nil {
				return "", err
			}
			return f2(mean), nil
		default: // model trained on X, applied to Y
			x := workloads[ci-2]
			agent, _, err := zoo.Get(base, x, sc, log)
			if err != nil {
				return "", err
			}
			mean, _, err := core.EvaluateAgent(agent, y, base, sc.Eval)
			if err != nil {
				return "", err
			}
			return f2(mean), nil
		}
	})
	if err != nil {
		return nil, err
	}

	for bi, base := range bases {
		tbl.AddRow(fmt.Sprintf("[%s as the base scheduling policy]", base.Name()))
		for yi, y := range workloads {
			tbl.Rows = append(tbl.Rows, append([]string{y.Name}, grid[bi*len(workloads)+yi]...))
		}
	}
	return tbl, nil
}
