// Command rlbf-eval evaluates a trained RLBackfilling model against the
// heuristic baselines on a workload, using the paper's protocol (§4.3):
// random job sequences scheduled under a base policy, mean bounded slowdown
// reported.
//
// Usage:
//
//	rlbf-eval -model rl-sdsc.json -trace hpc2n -policy FCFS -seqs 10 -seqlen 1024
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/backfill"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sched"
)

func main() {
	modelPath := flag.String("model", "", "model JSON produced by rlbf-train (optional)")
	traceArg := flag.String("trace", "sdsc-sp2", "built-in workload name or SWF file path")
	jobs := flag.Int("jobs", 10000, "jobs to use from the trace: at least 1 for a built-in workload; for an SWF file 0 = the whole file")
	policyArg := flag.String("policy", "FCFS", "base scheduling policy: FCFS, SJF, WFP3, F1")
	seqs := flag.Int("seqs", 10, "number of sampled job sequences (at least 1)")
	seqLen := flag.Int("seqlen", 1024, "jobs per sequence (at least 1)")
	seed := flag.Uint64("seed", 2023, "sampling seed")
	workers := flag.Int("workers", 0, "concurrent sequence replays (0 or 1 = sequential)")
	flag.Parse()
	if _, builtin := experiments.ResolveStream(*traceArg, *jobs, *seed); builtin && *jobs < 1 {
		usage("-jobs %d: a built-in workload needs at least 1 job", *jobs)
	}
	if *seqs < 1 {
		usage("-seqs %d: need at least 1 sequence", *seqs)
	}
	if *seqLen < 1 {
		usage("-seqlen %d: need at least 1 job per sequence", *seqLen)
	}

	policy, err := sched.ByName(*policyArg)
	if err != nil {
		fatal("%v", err)
	}
	tr, err := experiments.ResolveTrace(*traceArg, *jobs, *seed)
	if err != nil {
		fatal("%v", err)
	}
	evalCfg := core.EvalConfig{Sequences: *seqs, SeqLen: *seqLen, Seed: *seed, Workers: *workers}
	est := experiments.Estimator(tr)

	fmt.Printf("workload %s (%d jobs, %d procs), base policy %s, %d x %d-job sequences (seed %d)\n",
		tr.Name, tr.Len(), tr.Procs, policy.Name(), *seqs, *seqLen, *seed)

	report := func(name string, mean float64, per []float64) {
		fmt.Printf("%-14s mean bsld %10.2f  per-sequence:", name, mean)
		for _, v := range per {
			fmt.Printf(" %.1f", v)
		}
		fmt.Println()
	}

	if mean, per, err := core.EvaluateStrategy(tr, policy, nil, evalCfg); err == nil {
		report("no-backfill", mean, per)
	} else {
		fatal("%v", err)
	}
	if _, isAR := est.(backfill.ActualRuntime); !isAR {
		if mean, per, err := core.EvaluateStrategy(tr, policy, backfill.NewEASY(backfill.RequestTime{}), evalCfg); err == nil {
			report("EASY", mean, per)
		} else {
			fatal("%v", err)
		}
	}
	if mean, per, err := core.EvaluateStrategy(tr, policy, backfill.NewEASY(backfill.ActualRuntime{}), evalCfg); err == nil {
		report("EASY-AR", mean, per)
	} else {
		fatal("%v", err)
	}

	if *modelPath != "" {
		model, err := core.LoadModelFile(*modelPath)
		if err != nil {
			fatal("loading model: %v", err)
		}
		agent, err := model.Agent()
		if err != nil {
			fatal("%v", err)
		}
		mean, per, err := core.EvaluateAgent(agent, tr, policy, evalCfg)
		if err != nil {
			fatal("%v", err)
		}
		report(fmt.Sprintf("RLBF(%s)", model.TrainedOn), mean, per)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rlbf-eval: "+format+"\n", args...)
	os.Exit(1)
}

// usage reports a flag value the protocol cannot run with, before any work.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rlbf-eval: "+format+"\n", args...)
	os.Exit(2)
}
