// Command rlbf-exp regenerates the paper's tables and figures.
//
// Usage:
//
//	rlbf-exp -exp fig1,table4 -scale quick
//	rlbf-exp -exp all -scale paper -out results.txt
//
// Experiments: fig1, fig4, table2, table4, table5, ablation-skip,
// ablation-penalty, ablation-obs, conservative, loadsweep, scenario (or
// "all"). Scales: tiny, quick, paper.
//
// The experiments run one after another in the order given; results go to
// stdout (or -out) in that order. Progress goes to stderr: each experiment's
// lines follow its "== running <id> (scale <scale>) ==" header.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment IDs or 'all'")
	scale := flag.String("scale", "quick", "scale: tiny, quick or paper")
	out := flag.String("out", "", "write results to this file instead of stdout")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	list := flag.Bool("list", false, "list available experiments and exit")
	seed := flag.Uint64("seed", 0, "override the scale's master seed")
	jobs := flag.Int("jobs", 0, "override the per-trace job count")
	epochs := flag.Int("epochs", 0, "override the training epoch count")
	traj := flag.Int("traj", 0, "override the trajectories per training epoch")
	workers := flag.Int("workers", 0, "goroutines for table cells, training rollouts and PPO updates (0 = GOMAXPROCS)")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}
	sc, ok := experiments.ByName(*scale)
	if !ok {
		fmt.Fprintf(os.Stderr, "rlbf-exp: unknown scale %q (tiny, quick, paper)\n", *scale)
		os.Exit(2)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *jobs > 0 {
		sc.TraceJobs = *jobs
	}
	if *epochs > 0 {
		sc.Epochs = *epochs
	}
	if *traj > 0 {
		sc.TrajPerEpoch = *traj
	}
	if *workers > 0 {
		sc.Workers = *workers
	}

	var log io.Writer = os.Stderr
	if *quiet {
		log = io.Discard
	}
	result, err := experiments.RunMany(strings.Split(*exp, ","), sc, log)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlbf-exp: %v\n", err)
		os.Exit(1)
	}
	if *out == "" {
		fmt.Print(result)
		return
	}
	if err := os.WriteFile(*out, []byte(result), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "rlbf-exp: writing %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "rlbf-exp: wrote %s\n", *out)
}
