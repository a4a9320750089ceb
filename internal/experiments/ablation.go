package experiments

import (
	"fmt"
	"io"

	"repro/internal/backfill"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// trainVariant trains one model on the SDSC-SP2 surrogate with a config
// mutation and evaluates it (FCFS base). Each variant is one weighted cell;
// the seed is fixed by the scale, so variants are independent of the order
// the pool runs them in. The cell already holds trainWeight tokens, so the
// final evaluation fans its sequences across the same workers instead of
// idling them (results are worker-count independent).
func trainVariant(sc Scale, mutate func(*core.TrainConfig), log io.Writer) (float64, error) {
	tr := trace.SyntheticSDSCSP2(sc.TraceJobs, sc.Seed+1)
	cfg := sc.trainConfig(sched.FCFS{}, backfill.RequestTime{})
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

// variantTable runs one training cell per (label, mutation) pair on the pool
// and assembles a two-column table in the given order.
func variantTable(sc Scale, p *pool.Pool, tbl *Table, labels []string,
	mutations []func(*core.TrainConfig), log io.Writer) (*Table, error) {
	p = sc.cellPool(p)
	sc = sc.clampToPool(p)
	vals := make([]string, len(mutations))
	err := runCells(p, sc.trainWeight(), len(mutations), func(i int) error {
		v, err := trainVariant(sc, mutations[i], log)
		if err != nil {
			return err
		}
		vals[i] = f2(v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, label := range labels {
		tbl.AddRow(label, vals[i])
	}
	return tbl, nil
}

// AblationSkip compares training with and without the learned skip action
// (DESIGN.md: the paper leaves the "stop backfilling" mechanism implicit).
func AblationSkip(sc Scale, p *pool.Pool, log io.Writer) (*Table, error) {
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
	return variantTable(sc, p, tbl, labels, muts, log)
}

// AblationPenalty sweeps the reservation-violation penalty (§3.4 calls for a
// "large negative reward"; how large matters).
func AblationPenalty(sc Scale, p *pool.Pool, log io.Writer) (*Table, error) {
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
	return variantTable(sc, p, tbl, labels, muts, log)
}

// AblationObs sweeps MAX_OBSV_SIZE (§3.3.2 fixes it at 128 but notes it is a
// configurable training parameter).
func AblationObs(sc Scale, p *pool.Pool, log io.Writer) (*Table, error) {
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
	return variantTable(sc, p, tbl, labels, muts, log)
}

// ConservativeCompare pits no-backfilling, EASY and conservative backfilling
// against each other on every workload (related-work baseline, §5). Each
// (workload, strategy) replay is a weight-1 cell constructing its own
// backfiller.
func ConservativeCompare(sc Scale, p *pool.Pool, _ io.Writer) (*Table, error) {
	p = sc.cellPool(p)
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
	grid, err := runGrid(p, len(workloads), len(mkBF), func(wi, si int) (string, error) {
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
