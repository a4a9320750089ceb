// Command traceinfo prints Table 2-style characteristics for workloads:
// built-in names or SWF files.
//
// Usage:
//
//	traceinfo sdsc-sp2 hpc2n lublin-1 lublin-2
//	traceinfo -n 1000000 huge
//	traceinfo /data/HPC2N-2002-2.2-cln.swf
//
// Built-in workloads without enrichment stream through a statistics
// accumulator job-by-job, so even million-job summaries run in constant
// memory.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("traceinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 10000, "jobs to generate for built-in workloads, at least 1 (SWF files use all jobs)")
	seed := fs.Uint64("seed", 1, "generator seed for built-in workloads")
	memDist := fs.String("mem-dist", trace.MemDistNone, "enrich with per-job memory demands before reporting: none, prop or uniform")
	memPerProc := fs.Int("mem-per-proc", 0, "machine memory per processor in KB when enriching")
	tiers := fs.Int("priority-tiers", 0, "enrich with geometric priority tiers before reporting (0 or 1 = none)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *n < 1 {
		fmt.Fprintf(stderr, "traceinfo: -n %d: need at least 1 job\n", *n)
		return 2
	}

	names := fs.Args()
	if len(names) == 0 {
		names = []string{"sdsc-sp2", "hpc2n", "lublin-1", "lublin-2"}
	}
	exit := 0
	for _, arg := range names {
		spec := trace.EnrichSpec{MemDist: *memDist, MemPerProc: *memPerProc, PriorityTiers: *tiers, Seed: *seed}
		ts, builtin := experiments.ResolveStream(arg, *n, *seed)
		// Summary fast path: a plain built-in workload streams job-by-job
		// through the accumulator — no job slice is ever materialized, so
		// inspecting a million-job workload runs in constant memory.
		if builtin && !spec.Enabled() {
			acc := trace.NewStatsAccum(ts.Name, ts.Procs, 0)
			if err := ts.Run(func(j *trace.Job) error { acc.Add(j); return nil }); err != nil {
				fmt.Fprintf(stderr, "traceinfo: %v\n", err)
				exit = 1
				continue
			}
			printStats(stdout, acc.Stats())
			continue
		}
		// SWF files use all their jobs; -n only caps built-in generators.
		nArg := *n
		if !builtin {
			nArg = 0
		}
		tr, err := experiments.ResolveTrace(arg, nArg, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "traceinfo: %v\n", err)
			exit = 1
			continue
		}
		if spec.Enabled() {
			if tr, err = trace.Enrich(tr, spec); err != nil {
				fmt.Fprintf(stderr, "traceinfo: %v\n", err)
				exit = 1
				continue
			}
		}
		printStats(stdout, trace.ComputeStats(tr))
	}
	return exit
}

func printStats(w io.Writer, st trace.Stats) {
	fmt.Fprintln(w, st.String())
	if pt := st.PriorityTable(); pt != "" {
		fmt.Fprintf(w, "%-10s tier distribution: %s\n", "", pt)
	}
}
