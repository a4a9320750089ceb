package experiments

import (
	"fmt"

	"repro/internal/backfill"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// trainVariant trains one model on the SDSC-SP2 surrogate with a config
// mutation and evaluates it (FCFS base). Training and the final evaluation
// both fan out over the scale's workers; the seed is fixed by the scale, and
// results are worker-count independent.
func trainVariant(sc Scale, mutate func(*core.TrainConfig)) (float64, error) {
	tr := trace.SyntheticSDSCSP2(sc.TraceJobs, sc.Seed+1)
	cfg := sc.TrainConfig(sched.FCFS{}, backfill.RequestTime{})
	mutate(&cfg)
	trainer, err := core.NewTrainer(tr, cfg)
	if err != nil {
		return 0, err
	}
	if _, err := trainer.Train(sc.Epochs, nil); err != nil {
		return 0, err
	}
	eval := sc.Eval
	if eval.Workers == 0 {
		eval.Workers = sc.workers()
	}
	mean, _, err := core.EvaluateAgent(trainer.Agent(), tr, sched.FCFS{}, eval)
	return mean, err
}

// variantTable trains one model per (label, mutation) pair, one after
// another, and assembles a two-column table in the given order.
func variantTable(sc Scale, tbl *Table, labels []string, mutations []func(*core.TrainConfig)) (*Table, error) {
	for i, mutate := range mutations {
		v, err := trainVariant(sc, mutate)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(labels[i], f2(v))
	}
	return tbl, nil
}

// AblationSkip compares training with and without the learned skip action
// (DESIGN.md: the paper leaves the "stop backfilling" mechanism implicit).
func AblationSkip(sc Scale) (*Table, error) {
	tbl := &Table{
		Title:  "Ablation: skip action (SDSC-SP2, FCFS base)",
		Header: []string{"variant", "bsld"},
		Notes:  []string{fmt.Sprintf("scale=%s", sc.Name)},
	}
	var labels []string
	var muts []func(*core.TrainConfig)
	for _, skip := range []bool{true, false} {
		skip := skip
		labels = append(labels, fmt.Sprintf("skip=%v", skip))
		muts = append(muts, func(c *core.TrainConfig) { c.Obs.SkipAction = skip })
	}
	return variantTable(sc, tbl, labels, muts)
}

// AblationPenalty sweeps the reservation-violation penalty (§3.4 calls for a
// "large negative reward"; how large matters).
func AblationPenalty(sc Scale) (*Table, error) {
	tbl := &Table{
		Title:  "Ablation: violation penalty (SDSC-SP2, FCFS base)",
		Header: []string{"penalty", "bsld"},
		Notes:  []string{fmt.Sprintf("scale=%s", sc.Name)},
	}
	var labels []string
	var muts []func(*core.TrainConfig)
	for _, pen := range []float64{0, -1, -5, -20} {
		pen := pen
		labels = append(labels, fmt.Sprintf("%.0f", pen))
		muts = append(muts, func(c *core.TrainConfig) {
			c.ViolationPenalty = pen
			if pen == 0 {
				c.ViolationPenalty = -1e-9 // keep "zero" penalty from defaulting
			}
		})
	}
	return variantTable(sc, tbl, labels, muts)
}

// AblationObs sweeps MAX_OBSV_SIZE (§3.3.2 fixes it at 128 but notes it is a
// configurable training parameter).
func AblationObs(sc Scale) (*Table, error) {
	tbl := &Table{
		Title:  "Ablation: MAX_OBSV_SIZE (SDSC-SP2, FCFS base)",
		Header: []string{"MaxObs", "bsld"},
		Notes:  []string{fmt.Sprintf("scale=%s", sc.Name)},
	}
	var labels []string
	var muts []func(*core.TrainConfig)
	for _, m := range []int{sc.MaxObs / 2, sc.MaxObs, sc.MaxObs * 2} {
		if m < 4 {
			continue
		}
		m := m
		labels = append(labels, fmt.Sprintf("%d", m))
		muts = append(muts, func(c *core.TrainConfig) { c.Obs.MaxObs = m })
	}
	return variantTable(sc, tbl, labels, muts)
}

// ConservativeCompare pits no-backfilling, EASY and conservative backfilling
// against each other on every workload (related-work baseline, §5). Each
// (workload, strategy) replay is a grid cell constructing its own
// backfiller.
func ConservativeCompare(sc Scale) (*Table, error) {
	tbl := &Table{
		Title:  "Baseline: no backfilling vs EASY vs conservative (FCFS base, whole trace)",
		Header: []string{"trace", "none", "EASY", "conservative"},
		Notes:  []string{fmt.Sprintf("scale=%s jobs=%d", sc.Name, sc.TraceJobs)},
	}
	workloads := Workloads(sc.TraceJobs, sc.Seed)
	mkBF := []func(est backfill.Estimator) backfill.Backfiller{
		func(backfill.Estimator) backfill.Backfiller { return nil },
		func(est backfill.Estimator) backfill.Backfiller { return backfill.NewEASY(est) },
		func(est backfill.Estimator) backfill.Backfiller { return backfill.NewConservative(est) },
	}
	grid, err := runGrid(sc, len(workloads), len(mkBF), func(wi, si int) (string, error) {
		tr := workloads[wi]
		res, err := sim.Run(tr.Clone(), sim.Config{Policy: sched.FCFS{}, Backfiller: mkBF[si](estimatorFor(tr))})
		if err != nil {
			return "", err
		}
		return f2(res.Summary.MeanBSLD), nil
	})
	if err != nil {
		return nil, err
	}
	for wi, tr := range workloads {
		tbl.Rows = append(tbl.Rows, append([]string{tr.Name}, grid[wi]...))
	}
	return tbl, nil
}
