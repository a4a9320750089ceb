package experiments

import (
	"fmt"

	"repro/internal/backfill"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// LoadSweep is an extension experiment (DESIGN.md §5): how the heuristic
// backfilling strategies compare as the offered load scales. It compresses
// the SDSC-SP2 surrogate's arrivals by factors 0.5-2.0 and reports bsld for
// no backfilling, EASY, SJF-ordered EASY and conservative backfilling under
// FCFS. Every (factor, strategy) point is an independent grid cell, scaling
// the trace and constructing its backfiller privately. The crossover
// structure (aggressive EASY gaining on conservative as load rises) is the
// classic result this checks.
func LoadSweep(sc Scale) (*Table, error) {
	base := trace.SyntheticSDSCSP2(sc.TraceJobs, sc.Seed+1)
	est := backfill.RequestTime{}
	strategies := []struct {
		name string
		mk   func() backfill.Backfiller
	}{
		{"none", func() backfill.Backfiller { return nil }},
		{"EASY", func() backfill.Backfiller { return backfill.NewEASY(est) }},
		{"EASY-SJF", func() backfill.Backfiller { return &backfill.EASY{Est: est, Order: backfill.SJFOrder} }},
		{"conservative", func() backfill.Backfiller { return backfill.NewConservative(est) }},
	}
	factors := []float64{0.5, 0.75, 1.0, 1.5, 2.0}

	header := []string{"load factor"}
	for _, s := range strategies {
		header = append(header, s.name)
	}
	tbl := &Table{
		Title:  "Load sweep: bsld vs arrival compression (SDSC-SP2, FCFS base)",
		Header: header,
		Notes: []string{
			fmt.Sprintf("scale=%s jobs=%d seed=%d", sc.Name, sc.TraceJobs, sc.Seed),
			"factor f divides inter-arrival gaps by f (f>1 = more load)",
		},
	}

	grid, err := runGrid(sc, len(factors), len(strategies), func(fi, si int) (string, error) {
		scaled := trace.ScaleLoad(base, factors[fi]) // returns a private clone
		res, err := sim.Run(scaled, sim.Config{Policy: sched.FCFS{}, Backfiller: strategies[si].mk()})
		if err != nil {
			return "", err
		}
		return f2(res.Summary.MeanBSLD), nil
	})
	if err != nil {
		return nil, err
	}
	for fi, f := range factors {
		tbl.Rows = append(tbl.Rows, append([]string{fmt.Sprintf("%.2f", f)}, grid[fi]...))
	}
	return tbl, nil
}
