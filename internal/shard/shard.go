// Package shard replays long traces as windows simulated in parallel and
// stitched back into a single result stream, so a long end-to-end replay
// stops being a single-threaded bottleneck (cf. the split-window evaluation
// of Deep Back-Filling, arXiv:2401.09910).
//
// # Window model
//
// A trace of n jobs is cut every Window jobs. Window w owns a contiguous
// index range [cuts[w], cuts[w+1]) — its "proper" region — but replays the
// wider range [lo, hi) whose flanks autosize.go pins to drain points: job
// indices whose arrival finds the machine empty. The leading flank is the
// warm-up: replaying it from a cold cluster rebuilds the backlog (queue +
// running set) the sequential replay carries into the window. The trailing
// flank is the cool-down: it supplies the later arrivals that compete with
// end-of-window jobs before those jobs start (a later arrival can backfill
// into a gap and change an earlier job's start, but only while that job is
// still waiting). Records are kept only for the proper region; both flanks
// are discarded. A cut that no drain can reach merges its window into the
// previous one, so a trace that never drains replays sequentially.
//
// # Determinism and exactness
//
// The engine state (clock, queue, running) plus the remaining arrivals
// fully determines the rest of the schedule. At a drain point both the
// window replay and the sequential replay are empty, so from there on they
// evolve identically and the window's proper records are exact: the
// stitched replay is byte-identical to the sequential one. Drains are
// detected with two bounding machine models rather than the engine itself
// (autosize.go), so the differential tests pin this per strategy.
//
// Stitched records are returned in trace (submission) order — window w
// writes its proper records into their trace-index slots of one shared
// slice — so the output is deterministic and independent of worker count
// and window completion order.
package shard

import (
	"fmt"
	"runtime"

	"repro/internal/backfill"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultMinJobs is the auto-off threshold: traces shorter than this replay
// sequentially even when sharding is configured.
const DefaultMinJobs = 2048

// Config selects the sharded-replay geometry. The zero value disables
// sharding.
type Config struct {
	// Window is the number of jobs each window owns before drain-aware
	// merging. 0 disables sharding.
	Window int
	// MinJobs is the auto-off threshold (DefaultMinJobs when 0): traces
	// with fewer jobs replay sequentially.
	MinJobs int
	// Workers bounds the number of concurrently simulated windows when
	// Replay creates its own pool (0 = GOMAXPROCS). Ignored when the caller
	// supplies a pool.
	Workers int
}

// active reports whether a trace of n jobs would be sharded: Window must be
// set and the trace at least MinJobs long.
func (c Config) active(n int) bool {
	m := c.MinJobs
	if m <= 0 {
		m = DefaultMinJobs
	}
	return c.Window > 0 && n >= m
}

// Windows returns the number of windows Replay cuts t into under sc. 1
// means a sequential replay: sharding is off, the trace is below MinJobs,
// or no cut reaches a drain.
func Windows(t *trace.Trace, sc Config) int {
	if !sc.active(t.Len()) {
		return 1
	}
	_, flanks := autoFlanks(t, sc.Window)
	return len(flanks)
}

// Replay replays t under cfg, sharding it per sc when the trace is long
// enough. The backfiller must be nil or backfill.Cloneable to shard (each
// window needs private scratch state); a non-cloneable backfiller, a
// configured Probe, or a trace below the threshold all fall back to a
// sequential replay. Windows run as weight-1 cells on p, or on a private
// pool of sc.Workers (0 = GOMAXPROCS) tokens when p is nil.
//
// Records are always returned in trace (submission) order — including on
// the sequential fallback — and the Summary is computed over that order, so
// Replay's output for a given (trace, config) is identical whether or not
// sharding engaged.
func Replay(t *trace.Trace, cfg sim.Config, sc Config, p *pool.Pool) (*sim.Result, error) {
	if cfg.Probe != nil {
		return sequential(t, cfg)
	}
	mkBF := func() backfill.Backfiller { return cfg.Backfiller }
	if cfg.Backfiller != nil {
		c, ok := cfg.Backfiller.(backfill.Cloneable)
		if !ok {
			return sequential(t, cfg)
		}
		mkBF = func() backfill.Backfiller { return c.Fresh() }
	}
	return replay(t, cfg.Policy, cfg.Scenario, mkBF, sc, p)
}

// ReplayWith is Replay for callers that construct backfillers themselves
// (e.g. an RL agent's greedy clones): mkBF is invoked once per window — or
// once total on the sequential path — and each returned instance is used
// by exactly one engine.
func ReplayWith(t *trace.Trace, policy sched.Policy, mkBF func() backfill.Backfiller, sc Config, p *pool.Pool) (*sim.Result, error) {
	return replay(t, policy, sched.Scenario{}, mkBF, sc, p)
}

// replay threads the scheduling scenario into every window's engine.
// Scenario state regenerates from (clock, queue, running) — starvation wake
// events are re-queued when jobs re-enter a window's queue — so a window
// warmed up from a drain still evolves exactly as the sequential replay.
func replay(t *trace.Trace, policy sched.Policy, scn sched.Scenario, mkBF func() backfill.Backfiller, sc Config, p *pool.Pool) (*sim.Result, error) {
	n := t.Len()
	if !sc.active(n) {
		return sequential(t, sim.Config{Policy: policy, Scenario: scn, Backfiller: mkBF()})
	}
	// Auto-sizing merges windows whose cut cannot reach a drain; a fully
	// undrainable trace collapses to one window, i.e. the sequential replay.
	cuts, flanks := autoFlanks(t, sc.Window)
	numWin := len(flanks)
	if numWin <= 1 {
		return sequential(t, sim.Config{Policy: policy, Scenario: scn, Backfiller: mkBF()})
	}
	index := jobIndex(t)
	records := make([]metrics.Record, n)
	errs := make([]error, numWin)
	if p == nil {
		w := sc.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		p = pool.New(w)
	}
	g := p.NewGroup()
	for w := 0; w < numWin; w++ {
		g.Go(1, func() error {
			errs[w] = replayWindow(t, sim.Config{Policy: policy, Scenario: scn, Backfiller: mkBF()},
				cuts[w], cuts[w+1], flanks[w], index, records)
			return nil // indexed slots give deterministic error selection
		})
	}
	_ = g.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &sim.Result{Records: records, Summary: metrics.Summarize(records, t.Procs)}, nil
}

// replayWindow simulates one window's extended range [fl.lo, fl.hi) on a
// fresh engine and writes the proper region [propStart, propEnd)'s records
// into their trace-order slots of out. The replay stops as soon as every
// owned job has started — a record's End is fixed at start time — so the
// drain of the cool-down region is never simulated.
func replayWindow(t *trace.Trace, cfg sim.Config, propStart, propEnd int, fl flank,
	index map[*trace.Job]int, out []metrics.Record) error {
	lo, hi := fl.lo, fl.hi
	// The sub-trace shares job pointers with t: engines never mutate jobs,
	// so concurrent windows can read them race-free.
	sub := &trace.Trace{Name: t.Name, Procs: t.Procs, Mem: t.Mem, Jobs: t.Jobs[lo:hi]}
	e, err := sim.NewEngine(sub, cfg)
	if err != nil {
		return err
	}
	need := propEnd - propStart
	seen, done := 0, 0
	for seen < need {
		if !e.Step() {
			return fmt.Errorf("shard: window [%d,%d) drained with %d of %d owned jobs unstarted",
				propStart, propEnd, need-seen, need)
		}
		recs := e.Records()
		for ; done < len(recs); done++ {
			r := recs[done]
			if i := index[r.Job]; i >= propStart && i < propEnd {
				out[i] = r
				seen++
			}
		}
	}
	return nil
}

// sequential is the fallback path: a plain engine replay whose records are
// then reordered into trace order so the Replay contract holds either way.
func sequential(t *trace.Trace, cfg sim.Config) (*sim.Result, error) {
	res, err := sim.Run(t, cfg)
	if err != nil {
		return nil, err
	}
	index := jobIndex(t)
	ordered := make([]metrics.Record, t.Len())
	for _, r := range res.Records {
		i, ok := index[r.Job]
		if !ok {
			return nil, fmt.Errorf("shard: record for job %d not in trace", r.Job.ID)
		}
		ordered[i] = r
	}
	return &sim.Result{Records: ordered, Summary: metrics.Summarize(ordered, t.Procs)}, nil
}

// jobIndex maps each job pointer to its position in the trace. Built once
// per replay and read-only afterwards, so windows may share it.
func jobIndex(t *trace.Trace) map[*trace.Job]int {
	m := make(map[*trace.Job]int, t.Len())
	for i, j := range t.Jobs {
		m[j] = i
	}
	return m
}
