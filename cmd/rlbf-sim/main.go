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
	"math"
	"os"
	"strings"

	"repro/internal/backfill"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/sched"
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
	memDist := flag.String("mem-dist", trace.MemDistNone, "enrich the trace with per-job memory demands: none, prop or uniform")
	memPerProc := flag.Int("mem-per-proc", 0, "machine memory per processor in KB when enriching")
	tiers := flag.Int("priority-tiers", 0, "enrich the trace with geometric priority tiers (0 or 1 = none)")
	priorities := flag.Bool("priorities", false, "schedule with priority-tier ordering")
	starvationBound := flag.Float64("starvation-bound", 0, "aging bound: a job starves once wait exceeds bound x request (0 = off)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the replay to this file")
	memProfile := flag.String("memprofile", "", "write a heap/allocation profile taken after the replay to this file")
	flag.Parse()
	if _, builtin := experiments.ResolveStream(*traceArg, *jobs, *seed); builtin && *jobs < 1 {
		usage("-jobs %d: a built-in workload needs at least 1 job", *jobs)
	}
	switch {
	case !finiteNonNegative(*noise):
		usage("-noise %v: want a finite level >= 0", *noise)
	case !finiteNonNegative(*starvationBound):
		usage("-starvation-bound %v: want a finite bound >= 0 (0 = off)", *starvationBound)
	case *tiers < 0:
		usage("-priority-tiers %d: want 0 or more (0 or 1 = none)", *tiers)
	case *memPerProc < 0:
		usage("-mem-per-proc %d: want 0 or more KB (0 = the default)", *memPerProc)
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
		bf = backfill.NewEASY(est)
	case "easy-ar":
		bf = backfill.NewEASY(backfill.ActualRuntime{})
	case "easy-sjf":
		bf = &backfill.EASY{Est: est, Order: backfill.SJFOrder}
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

	probe := &sim.TimelineProbe{}
	stopCPU, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		fatal("cpu profile: %v", err)
	}
	res, err := sim.Run(tr, sim.Config{Policy: policy, Scenario: scn, Backfiller: bf, Probe: probe})
	if perr := stopCPU(); perr != nil {
		fatal("cpu profile: %v", perr)
	}
	if err != nil {
		fatal("%v", err)
	}
	if err := prof.WriteHeap(*memProfile); err != nil {
		fatal("heap profile: %v", err)
	}
	records := inTraceOrder(tr, res.Records)
	bfName := "none"
	if bf != nil {
		bfName = bf.Name()
	}
	fmt.Printf("%s | policy %s | backfill %s\n", trace.ComputeStats(tr), policy.Name(), bfName)
	fmt.Println(metrics.Summarize(records, tr.Procs))
	fmt.Println(probe)
	fmt.Printf("util |%s|\n", probe.Sparkline(72))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Fprintln(f, "job,submit,start,end,wait,procs,runtime,request,bsld")
		for _, r := range records {
			fmt.Fprintf(f, "%d,%d,%d,%d,%d,%d,%d,%d,%.3f\n",
				r.Job.ID, r.Job.Submit, r.Start, r.End, r.Wait(), r.Job.Procs,
				r.Job.Runtime, r.Job.Request, r.BoundedSlowdown())
		}
		if err := f.Close(); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("wrote %d records to %s\n", len(records), *csvPath)
	}
}

// inTraceOrder returns the records in the order their jobs appear in the
// trace, not in completion order, so the summary's float sums and the CSV
// rows come out in one fixed order.
func inTraceOrder(tr *trace.Trace, recs []metrics.Record) []metrics.Record {
	pos := make(map[*trace.Job]int, tr.Len())
	for i, j := range tr.Jobs {
		pos[j] = i
	}
	out := make([]metrics.Record, len(recs))
	for _, r := range recs {
		out[pos[r.Job]] = r
	}
	return out
}

func finiteNonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// usage reports a bad flag value and exits 2, before any work.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rlbf-sim: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rlbf-sim: "+format+"\n", args...)
	os.Exit(1)
}
