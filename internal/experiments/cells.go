package experiments

import (
	"errors"
	"sync/atomic"

	"repro/internal/pool"
)

// errAborted reports that a fan-out was cut short because the shared pool
// was aborted by a failing sibling experiment. RunMany prefers the sibling's
// real error over this one when selecting what to report.
var errAborted = errors.New("aborted after another experiment failed")

// This file is the heart of the parallel cell runner (DESIGN.md §6.1): every
// experiment decomposes into independent, deterministically-seeded cells that
// execute on a shared bounded pool and assemble into tables BY INDEX — never
// by completion order — so the rendered output is bit-identical at any
// worker count.

// cellPool resolves the pool an experiment runs on: the shared RunMany pool
// when one is passed, or a private pool sized by the scale (direct callers
// such as tests).
func (s Scale) cellPool(p *pool.Pool) *pool.Pool {
	if p != nil {
		return p
	}
	return pool.New(s.workers())
}

// trainWeight is the pool weight of a cell that trains a model: training
// itself runs cfg.Workers rollout goroutines (see TrainConfig), so the cell
// must hold that many tokens to keep the machine subscribed exactly once.
func (s Scale) trainWeight() int {
	return s.workers()
}

// clampToPool bounds the scale's parallelism to the pool its cells run on,
// so a training cell's internal fan-out (TrainConfig.Workers) never exceeds
// the tokens it can actually hold — with a pool smaller than the scale's
// worker count, an unclamped training would oversubscribe the machine.
// Rollouts are independent of the worker count, but the PPO update sums
// per worker (see core.TrainConfig), so clamping can move a trained model
// in its last bits; TestRunManyDeterministicAcrossWorkers checks that the
// tiny-scale tables do not move.
func (s Scale) clampToPool(p *pool.Pool) Scale {
	if w := p.Capacity(); s.workers() > w {
		s.Workers = w
	}
	return s
}

// runCells executes n independent cells on the pool, each of weight tokens.
// Every cell writes its result into its own indexed slot inside fn; errors
// are collected per index and the lowest-index error is returned, so error
// reporting is deterministic. A failure aborts the shared pool (fail-fast):
// in-flight cells finish, but cells not yet started — in this group AND in
// every sibling experiment sharing the pool — are skipped, so a paper-scale
// run does not burn hours after its result is already lost. A group whose
// cells were skipped by a sibling's abort returns errAborted rather than
// nil, so its experiment stops instead of proceeding on missing results.
func runCells(p *pool.Pool, weight, n int, fn func(i int) error) error {
	g := p.NewGroup()
	errs := make([]error, n)
	var skipped atomic.Bool
	for i := 0; i < n; i++ {
		i := i
		g.Go(weight, func() error {
			if p.Aborted() {
				skipped.Store(true)
				return nil
			}
			if err := fn(i); err != nil {
				errs[i] = err
				p.Abort()
			}
			return errs[i]
		})
	}
	werr := g.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if werr != nil { // unreachable backstop: indexed slots cover every error
		return werr
	}
	if skipped.Load() {
		return errAborted
	}
	return nil
}

// runGrid evaluates a rows x cols grid of weight-1 cells on the pool and
// returns the cell strings row by row — the shape shared by every
// replay-style experiment (one simulation per table cell).
func runGrid(p *pool.Pool, rows, cols int, cell func(r, c int) (string, error)) ([][]string, error) {
	flat := make([]string, rows*cols)
	err := runCells(p, 1, len(flat), func(i int) error {
		v, err := cell(i/cols, i%cols)
		if err != nil {
			return err
		}
		flat[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]string, rows)
	for r := range out {
		out[r] = flat[r*cols : (r+1)*cols]
	}
	return out, nil
}
