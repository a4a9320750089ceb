package core

import (
	"fmt"

	"repro/internal/backfill"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// EvalConfig mirrors the paper's test protocol (§4.3): nSeq random sequences
// of SeqLen jobs (paper: 10 sequences of 1024 jobs — four times the training
// length, to surface overfitting), scheduled with a base policy plus the
// strategy under test; the mean bounded slowdown over the sequences is
// reported.
type EvalConfig struct {
	Sequences int
	SeqLen    int
	Seed      uint64
	// Workers replays the sequences concurrently (0 or 1 = sequential).
	// Sequence sampling is derived from Seed alone and results are collected
	// by sequence index, so the outcome is identical at any worker count.
	Workers int
	// Scn threads the scheduling scenario (priority tiers, starvation bound)
	// into every replayed sequence's engine. The zero value is the classic
	// evaluation.
	Scn sched.Scenario
}

// DefaultEvalConfig returns the paper's evaluation protocol.
func DefaultEvalConfig() EvalConfig { return EvalConfig{Sequences: 10, SeqLen: 1024, Seed: 2023} }

// runSequences replays every sampled sequence through fanOut on cfg.Workers
// goroutines. mkBF yields the backfiller for one replay: backfillers carry
// scratch state, so each concurrent replay needs its own instance. Results
// are written by sequence index — never by completion order — so the output
// is bit-identical at any worker count.
func runSequences(t *trace.Trace, base sched.Policy, cfg EvalConfig,
	mkBF func() backfill.Backfiller) (float64, []float64, error) {
	switch {
	case cfg.Sequences < 1:
		return 0, nil, fmt.Errorf("eval: %d sequences, need at least 1", cfg.Sequences)
	case cfg.SeqLen < 1:
		return 0, nil, fmt.Errorf("eval: sequence length %d, need at least 1", cfg.SeqLen)
	case t.Len() == 0:
		return 0, nil, fmt.Errorf("eval: trace %q has no jobs", t.Name)
	}
	// Every window comes from one RNG seeded with cfg.Seed, so every
	// strategy evaluated with the same config sees the same sequences.
	rng := stats.NewRNG(cfg.Seed)
	wins := make([]window, cfg.Sequences)
	for i := range wins {
		wins[i] = drawWindow(t, cfg.SeqLen, rng)
	}
	per := make([]float64, len(wins))
	err := fanOut(len(wins), cfg.Workers, func(i int) error {
		res, err := sim.Run(wins[i].jobs(t), sim.Config{Policy: base, Scenario: cfg.Scn, Backfiller: mkBF()})
		if err != nil {
			return err
		}
		per[i] = res.Summary.MeanBSLD
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return stats.Mean(per), per, nil
}

// EvaluateStrategy measures a base policy plus heuristic backfiller
// (nil = no backfilling) under the paper's protocol, returning the mean and
// per-sequence bounded slowdowns. It returns an error when cfg asks for no
// sequences, empty sequences, or the trace has no jobs. With cfg.Workers > 1 the sequences replay
// concurrently when the backfiller is nil or backfill.Cloneable; a stateful
// backfiller that cannot be cloned falls back to a sequential run.
func EvaluateStrategy(t *trace.Trace, base sched.Policy, bf backfill.Backfiller, cfg EvalConfig) (float64, []float64, error) {
	mkBF := func() backfill.Backfiller { return bf }
	if bf != nil {
		if c, ok := bf.(backfill.Cloneable); ok {
			mkBF = func() backfill.Backfiller { return c.Fresh() }
		} else {
			cfg.Workers = 1 // cannot share scratch state between replays
		}
	}
	return runSequences(t, base, cfg, mkBF)
}

// EvaluateAgent measures a trained agent (greedy action selection, §3.3.1)
// under the same protocol; each concurrent replay gets a greedy clone
// sharing the read-only networks, and the same config errors apply. The
// agent may have been trained on a different trace — that is exactly the
// paper's generality experiment (Table 5).
func EvaluateAgent(a *Agent, t *trace.Trace, base sched.Policy, cfg EvalConfig) (float64, []float64, error) {
	return runSequences(t, base, cfg, a.Fresh)
}
