// Package shard is what is left of sharded replay: the one call the
// benchmark module (benchmark/replay.go) still makes. No window is cut; a
// replay is the sequential sim.Run.
package shard

import (
	"repro/internal/backfill"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config is unread. It is kept only so the benchmark module's call still
// compiles.
type Config struct{ Window, MinJobs, Workers int }

// ReplayWith replays t under policy with one backfiller from mkBF. The
// Config and the last argument, which the benchmark passes as nil, are
// ignored.
func ReplayWith(t *trace.Trace, policy sched.Policy, mkBF func() backfill.Backfiller, _ Config, _ any) (*sim.Result, error) {
	return sim.Run(t, sim.Config{Policy: policy, Backfiller: mkBF()})
}
