// Command tracegen generates a synthetic workload (SDSC-SP2/HPC2N surrogate,
// Lublin model, or the huge multi-partition Lublin composition) and writes it
// in Standard Workload Format, so it can be inspected or fed to other
// SWF-consuming tools.
//
// Usage:
//
//	tracegen -workload lublin-1 -n 10000 -seed 7 -o lublin1.swf
//	tracegen -workload sdsc-sp2 -mem-dist prop -priority-tiers 3 -o sdsc-sc.swf
//	tracegen -workload huge -n 1000000 -nodes 4096 -load 0.8 -o huge.swf
//
// The -mem-dist and -priority-tiers flags enrich the workload with per-job
// memory demands and priority tiers (the scenario dimensions); the SWF output
// then carries a MaxMemory header, requested-memory column and queue-encoded
// tiers, and round-trips through the parser.
//
// Without enrichment, built-in workloads stream straight from the generator
// to the SWF writer — jobs are written as they are drawn and never collected
// into a slice, so generating a million-job archive runs in constant memory.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/lublin"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "sdsc-sp2", "sdsc-sp2, hpc2n, lublin-1, lublin-2 or huge")
	n := fs.Int("n", 10000, "number of jobs (at least 1)")
	seed := fs.Uint64("seed", 1, "generator seed")
	out := fs.String("o", "", "output SWF path (default stdout)")
	memDist := fs.String("mem-dist", trace.MemDistNone, "per-job memory enrichment: none, prop or uniform")
	memPerProc := fs.Int("mem-per-proc", 0, "machine memory per processor in KB (default "+fmt.Sprint(trace.DefaultMemPerProc)+" when enriching)")
	tiers := fs.Int("priority-tiers", 0, "priority tiers to synthesize (geometric; 0 or 1 = none)")
	nodes := fs.Int("nodes", 0, "huge workload: machine size in processors (0 = 4096)")
	streams := fs.Int("streams", 0, "huge workload: partition streams composed (0 = nodes/256)")
	load := fs.Float64("load", 0, "huge workload: target machine utilization (0 = 0.8)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *n < 1 {
		fmt.Fprintf(stderr, "tracegen: -n %d: need at least 1 job\n", *n)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "tracegen: %v\n", err)
		return 1
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = f
	}

	isHuge := false
	switch strings.ToLower(*workload) {
	case "huge", "lublin-huge":
		isHuge = true
	}
	spec := trace.EnrichSpec{MemDist: *memDist, MemPerProc: *memPerProc, PriorityTiers: *tiers, Seed: *seed}

	// Streaming path: enrichment needs the whole trace, but a plain built-in
	// workload goes straight from the generator to the SWF rows.
	if !spec.Enabled() {
		var ts experiments.TraceStream
		var ok bool
		if isHuge {
			ts, ok = experiments.HugeStream(lublin.Huge(*nodes, *streams, *load), *n, *seed), true
		} else {
			ts, ok = experiments.ResolveStream(*workload, *n, *seed)
		}
		if ok {
			wrote := 0
			sw, err := trace.NewSWFWriter(w, ts.Name, ts.Procs, 0)
			if err == nil {
				err = ts.Run(func(j *trace.Job) error {
					if err := sw.WriteJob(j); err != nil {
						return err
					}
					wrote++
					return nil
				})
			}
			if err == nil {
				err = sw.Flush()
			}
			if err != nil {
				return fail(err)
			}
			if *out != "" {
				fmt.Fprintf(stderr, "tracegen: wrote %d jobs to %s\n", wrote, *out)
			}
			return 0
		}
	}

	var tr *trace.Trace
	var err error
	if isHuge {
		tr = experiments.HugeTrace(lublin.Huge(*nodes, *streams, *load), *n, *seed)
	} else {
		tr, err = experiments.ResolveTrace(*workload, *n, *seed)
	}
	if err != nil {
		return fail(err)
	}
	if spec.Enabled() {
		if tr, err = trace.Enrich(tr, spec); err != nil {
			return fail(err)
		}
	}
	if err := trace.WriteSWF(w, tr); err != nil {
		return fail(err)
	}
	if *out != "" {
		fmt.Fprintf(stderr, "tracegen: wrote %d jobs to %s\n", tr.Len(), *out)
	}
	return 0
}
