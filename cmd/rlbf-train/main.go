// Command rlbf-train trains an RLBackfilling model on a workload and saves
// it as JSON for rlbf-eval (the Table 5 "train on X, apply to Y" protocol).
//
// Usage:
//
//	rlbf-train -trace sdsc-sp2 -policy FCFS -epochs 20 -o rl-sdsc.json
//	rlbf-train -trace /data/SDSC-SP2-1998-4.2-cln.swf -jobs 10000 -scale paper -o m.json
//	rlbf-train -scale quick -epochs 3 -cpuprofile cpu.prof -memprofile mem.prof
//
// The two profile flags cover the training epochs only (not trace loading or
// the model write); read them with `go tool pprof -top rlbf-train cpu.prof`
// and `go tool pprof -sample_index=alloc_space -top rlbf-train mem.prof`.
//
// Training uses one worker per GOMAXPROCS, and the PPO update sums its
// gradients per worker, so the same flags write the same model file only at
// the same worker count (ROADMAP item 3(e)). The "training on" line names the
// count; pin it with GOMAXPROCS to repeat a model elsewhere:
//
//	GOMAXPROCS=2 rlbf-train -scale paper -epochs 2 -o m.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/sched"
)

func main() {
	traceArg := flag.String("trace", "sdsc-sp2", "built-in workload name or SWF file path")
	jobs := flag.Int("jobs", 0, "jobs to use from the trace (0 = scale default)")
	policyArg := flag.String("policy", "FCFS", "base scheduling policy: FCFS, SJF, WFP3, F1")
	epochs := flag.Int("epochs", 0, "training epochs (0 = scale default)")
	scaleArg := flag.String("scale", "quick", "scale preset: tiny, quick, paper")
	seed := flag.Uint64("seed", 0, "master seed (0 = scale default)")
	out := flag.String("o", "rlbf-model.json", "output model path")
	curve := flag.String("curve", "", "write the per-epoch training curve (Figure 4 data) to this CSV file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the training epochs to this file")
	memProfile := flag.String("memprofile", "", "write a heap/allocation profile taken after the last epoch to this file")
	flag.Parse()

	sc, ok := experiments.ByName(*scaleArg)
	if !ok {
		fatal("unknown scale %q", *scaleArg)
	}
	if *jobs > 0 {
		sc.TraceJobs = *jobs
	}
	if *epochs > 0 {
		sc.Epochs = *epochs
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	policy, err := sched.ByName(*policyArg)
	if err != nil {
		fatal("%v", err)
	}
	tr, err := experiments.ResolveTrace(*traceArg, sc.TraceJobs, sc.Seed)
	if err != nil {
		fatal("%v", err)
	}

	trainer, err := core.NewTrainer(tr, sc.TrainConfig(policy, experiments.Estimator(tr)))
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "training on %s (%d jobs, %d procs) with %s base policy, %d epochs, %d workers\n",
		tr.Name, tr.Len(), tr.Procs, policy.Name(), sc.Epochs, trainer.Config().Workers)
	stopCPU, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		fatal("cpu profile: %v", err)
	}
	hist, err := trainer.Train(sc.Epochs, func(st core.EpochStats) {
		fmt.Fprintf(os.Stderr, "epoch %3d: bsld=%8.2f baseline=%8.2f reward=%+.3f steps=%5d violations=%d kl=%.4f\n",
			st.Epoch, st.MeanBSLD, st.BaselineBSLD, st.MeanReward, st.Steps, st.Violations, st.Update.KL)
	})
	if perr := stopCPU(); perr != nil {
		fatal("cpu profile: %v", perr)
	}
	if err != nil {
		fatal("training: %v", err)
	}
	if err := prof.WriteHeap(*memProfile); err != nil {
		fatal("heap profile: %v", err)
	}
	if best := core.BestEpoch(hist); best >= 0 {
		fmt.Fprintf(os.Stderr, "best epoch %d (bsld %.2f); converged=%v\n",
			best, hist[best].MeanBSLD, core.Converged(hist, 5, 0.01))
	}
	if *curve != "" {
		f, err := os.Create(*curve)
		if err != nil {
			fatal("%v", err)
		}
		if err := core.WriteHistoryCSV(f, hist); err != nil {
			f.Close()
			fatal("writing curve: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote training curve to %s\n", *curve)
	}

	model := core.ExportModel(trainer.Agent(), policy.Name(), tr.Name, sc.Epochs)
	if err := core.SaveModelFile(*out, model); err != nil {
		fatal("saving model: %v", err)
	}
	fmt.Fprintf(os.Stderr, "saved model to %s\n", *out)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rlbf-train: "+format+"\n", args...)
	os.Exit(1)
}
