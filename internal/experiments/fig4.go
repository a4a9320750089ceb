package experiments

import (
	"fmt"
	"io"

	"repro/internal/sched"
)

// Figure4 reproduces the training curves (§4.2): RLBackfilling trained with
// the FCFS base policy on each of the four traces; one row per epoch with
// the epoch's mean bsld (the y-axis of the paper's plots) and mean reward.
// The four trainings run one after another through the zoo, each on all the
// workers, and the curves assemble in workload order.
//
// Expected shape (paper): bsld falls / reward rises with epochs; the
// synthetic Lublin traces converge faster than the archive traces.
func Figure4(sc Scale, zoo *Zoo, log io.Writer) (*Table, error) {
	workloads := Workloads(sc.TraceJobs, sc.Seed)
	header := []string{"epoch"}
	for _, tr := range workloads {
		header = append(header, tr.Name+" bsld", tr.Name+" reward")
	}
	tbl := &Table{
		Title:  "Figure 4: RLBackfilling training curves (FCFS base policy)",
		Header: header,
		Notes: []string{
			fmt.Sprintf("scale=%s: %d epochs x %d traj x %d jobs, MaxObs=%d", sc.Name, sc.Epochs, sc.TrajPerEpoch, sc.EpisodeLen, sc.MaxObs),
			"paper shape: bsld decreases with training; synthetic traces converge fastest",
		},
	}

	curves := make([][]string, sc.Epochs)
	for i := range curves {
		curves[i] = []string{fmt.Sprintf("%d", i)}
	}
	for _, tr := range workloads {
		_, curve, err := zoo.Get(sched.FCFS{}, tr, sc, log)
		if err != nil {
			return nil, err
		}
		for i := 0; i < sc.Epochs; i++ {
			if i < len(curve) {
				curves[i] = append(curves[i], f2(curve[i].MeanBSLD), fmt.Sprintf("%+.3f", curve[i].MeanReward))
			} else {
				curves[i] = append(curves[i], "-", "-")
			}
		}
	}
	tbl.Rows = curves
	return tbl, nil
}
