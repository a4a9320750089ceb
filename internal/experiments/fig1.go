package experiments

import (
	"fmt"

	"repro/internal/backfill"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Figure1 reproduces the paper's motivating experiment (§1, Figure 1):
// schedule the SDSC-SP2 workload with each base policy (FCFS, WFP3, SJF, F1)
// under EASY backfilling driven by runtime predictions of varying accuracy —
// the actual runtime (perfect prediction), actual +5/10/20/40/100 % noise,
// and the raw user request time — and report the average bounded slowdown.
// Every (policy, estimator) point is an independent cell of the grid, which
// assembles by index.
//
// Expected shape (paper): better prediction accuracy does NOT monotonically
// improve bsld; only SJF is best with the perfect prediction.
func Figure1(sc Scale) (*Table, error) {
	tr := trace.SyntheticSDSCSP2(sc.TraceJobs, sc.Seed+1)

	// One estimator per column: AR, the noise levels, then RT.
	ests := []backfill.Estimator{backfill.ActualRuntime{}}
	for _, lvl := range []float64{0.05, 0.10, 0.20, 0.40, 1.00} {
		ests = append(ests, backfill.Noisy{Level: lvl, Seed: sc.Seed + 77})
	}
	ests = append(ests, backfill.RequestTime{})
	pols := sched.All()

	tbl := &Table{
		Title:  "Figure 1: bsld vs runtime-prediction accuracy on SDSC-SP2 (EASY backfilling)",
		Header: []string{"policy", "AR", "+5%", "+10%", "+20%", "+40%", "+100%", "RT"},
		Notes: []string{
			fmt.Sprintf("scale=%s jobs=%d seed=%d; estimates AR*(1+U(0,x)) per job", sc.Name, sc.TraceJobs, sc.Seed),
			"paper shape: non-monotone in accuracy for FCFS/WFP3/F1; SJF best at AR",
		},
	}

	grid, err := runGrid(sc, len(pols), len(ests), func(pi, ci int) (string, error) {
		res, err := sim.Run(tr.Clone(), sim.Config{
			Policy:     pols[pi],
			Backfiller: backfill.NewEASY(ests[ci]),
		})
		if err != nil {
			return "", err
		}
		return f2(res.Summary.MeanBSLD), nil
	})
	if err != nil {
		return nil, err
	}
	for pi, pol := range pols {
		tbl.Rows = append(tbl.Rows, append([]string{pol.Name()}, grid[pi]...))
	}
	return tbl, nil
}
