// Command rlbf-sim replays a workload through the scheduling simulator with
// a chosen base policy and backfilling strategy, printing the scheduling
// metrics, a utilization sparkline, and (optionally) a per-job CSV.
//
// Usage:
//
//	rlbf-sim -trace sdsc-sp2 -policy SJF -backfill easy
//	rlbf-sim -trace lublin-1 -policy F1 -backfill conservative -csv jobs.csv
//	rlbf-sim -trace hpc2n -policy FCFS -backfill rlbf -model rl.json
//	rlbf-sim -trace lublin-huge -jobs 100000 -cpuprofile cpu.prof -memprofile mem.prof
//
// The two profile flags cover the replay only (not trace loading or the
// report); read them with `go tool pprof -top rlbf-sim cpu.prof` and
// `go tool pprof -sample_index=alloc_space -top rlbf-sim mem.prof`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/backfill"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	traceArg := flag.String("trace", "sdsc-sp2", "built-in workload name or SWF file path")
	jobs := flag.Int("jobs", 5000, "jobs to use from the trace: at least 1 for a built-in workload; for an SWF file 0 = the whole file")
	seed := flag.Uint64("seed", 1, "generator seed for built-in workloads")
	policyArg := flag.String("policy", "FCFS", "FCFS, SJF, WFP3, F1, F2, F3, F4 or SAF")
	bfArg := flag.String("backfill", "easy", "none, easy, easy-ar, easy-sjf, conservative or rlbf")
	modelArg := flag.String("model", "", "model file for -backfill rlbf")
	noise := flag.Float64("noise", 0, "prediction noise level for easy (+x, e.g. 0.2)")
	csvPath := flag.String("csv", "", "write per-job records to this CSV file")
	shardWindow := flag.Int("shard-window", 0, "jobs per window for a parallel replay with drain-aware flanks (0 = sequential)")
	memDist := flag.String("mem-dist", trace.MemDistNone, "enrich the trace with per-job memory demands: none, prop or uniform")
	memPerProc := flag.Int("mem-per-proc", 0, "machine memory per processor in KB when enriching")
	tiers := flag.Int("priority-tiers", 0, "enrich the trace with geometric priority tiers (0 or 1 = none)")
	priorities := flag.Bool("priorities", false, "schedule with priority-tier ordering")
	starvationBound := flag.Float64("starvation-bound", 0, "aging bound: a job starves once wait exceeds bound x request (0 = off)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the replay to this file")
	memProfile := flag.String("memprofile", "", "write a heap/allocation profile taken after the replay to this file")
	flag.Parse()
	if _, builtin := experiments.ResolveStream(*traceArg, *jobs, *seed); builtin && *jobs < 1 {
		fmt.Fprintf(os.Stderr, "rlbf-sim: -jobs %d: a built-in workload needs at least 1 job\n", *jobs)
		os.Exit(2)
	}

	policy, err := sched.ByNameExtended(*policyArg)
	if err != nil {
		fatal("%v", err)
	}
	tr, err := experiments.ResolveTrace(*traceArg, *jobs, *seed)
	if err != nil {
		fatal("%v", err)
	}
	spec := trace.EnrichSpec{MemDist: *memDist, MemPerProc: *memPerProc, PriorityTiers: *tiers, Seed: *seed}
	if spec.Enabled() {
		if tr, err = trace.Enrich(tr, spec); err != nil {
			fatal("%v", err)
		}
	}
	scn := sched.Scenario{Priorities: *priorities, StarvationBound: *starvationBound}
	est := experiments.Estimator(tr)
	if *noise > 0 {
		est = backfill.Noisy{Level: *noise, Seed: *seed + 77}
	}

	var bf backfill.Backfiller
	switch strings.ToLower(*bfArg) {
	case "none":
	case "easy":
		bf = &backfill.EASY{Est: est, Scn: scn}
	case "easy-ar":
		bf = &backfill.EASY{Est: backfill.ActualRuntime{}, Scn: scn}
	case "easy-sjf":
		bf = &backfill.EASY{Est: est, Order: backfill.SJFOrder, Scn: scn}
	case "conservative":
		bf = backfill.NewConservative(est)
	case "rlbf":
		if *modelArg == "" {
			fatal("-backfill rlbf needs -model")
		}
		m, err := core.LoadModelFile(*modelArg)
		if err != nil {
			fatal("%v", err)
		}
		agent, err := m.Agent()
		if err != nil {
			fatal("%v", err)
		}
		bf = agent
	default:
		fatal("unknown backfill strategy %q", *bfArg)
	}

	// Sharding only engages for a cloneable (or absent) backfiller and more
	// than one kept window; otherwise shard.Replay would silently run
	// sequentially, so keep the probe and tell the user why.
	shardCfg := shard.Config{Window: *shardWindow, MinJobs: 1}
	windows := shard.Windows(tr, shardCfg)
	if *shardWindow > 0 && windows < 2 {
		fmt.Fprintf(os.Stderr, "rlbf-sim: sharding ignored: -shard-window %d keeps one window (the trace is no longer, or no cut reaches a drain)\n", *shardWindow)
	}
	if windows > 1 && bf != nil {
		if _, ok := bf.(backfill.Cloneable); !ok {
			fmt.Fprintf(os.Stderr, "rlbf-sim: sharding ignored: backfiller %s cannot be cloned across windows\n", bf.Name())
			windows = 1
		}
	}
	// Both modes go through shard.Replay — a configured probe forces a
	// sequential replay — so the records (and any CSV) come back in trace
	// order either way and the two outputs stay row-for-row comparable. A
	// probe observes the whole engine timeline, which a stitched replay
	// cannot reproduce, so the sparkline exists only in sequential mode.
	var probe *sim.TimelineProbe
	simCfg := sim.Config{Policy: policy, Scenario: scn, Backfiller: bf}
	if windows < 2 {
		probe = &sim.TimelineProbe{}
		simCfg.Probe = probe // assigned only when non-nil: a typed-nil probe would defeat the engine's nil check
	}
	stopCPU, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		fatal("cpu profile: %v", err)
	}
	res, err := shard.Replay(tr, simCfg, shardCfg, nil)
	if perr := stopCPU(); perr != nil {
		fatal("cpu profile: %v", perr)
	}
	if err != nil {
		fatal("%v", err)
	}
	if err := prof.WriteHeap(*memProfile); err != nil {
		fatal("heap profile: %v", err)
	}
	bfName := "none"
	if bf != nil {
		bfName = bf.Name()
	}
	fmt.Printf("%s | policy %s | backfill %s\n", trace.ComputeStats(tr), policy.Name(), bfName)
	fmt.Println(res.Summary)
	if probe != nil {
		fmt.Println(probe)
		fmt.Printf("util |%s|\n", probe.Sparkline(72))
	} else {
		fmt.Printf("sharded replay: %d windows cut every %d jobs (timeline probe off)\n", windows, *shardWindow)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Fprintln(f, "job,submit,start,end,wait,procs,runtime,request,bsld")
		for _, r := range res.Records {
			fmt.Fprintf(f, "%d,%d,%d,%d,%d,%d,%d,%d,%.3f\n",
				r.Job.ID, r.Job.Submit, r.Start, r.End, r.Wait(), r.Job.Procs,
				r.Job.Runtime, r.Job.Request, r.BoundedSlowdown())
		}
		if err := f.Close(); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("wrote %d records to %s\n", len(res.Records), *csvPath)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rlbf-sim: "+format+"\n", args...)
	os.Exit(1)
}
