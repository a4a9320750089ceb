package core

import (
	"repro/internal/stats"
	"repro/internal/trace"
)

// window is n consecutive jobs of a trace from index start: the unit a
// training episode schedules and an evaluation sequence scores.
type window struct{ start, n int }

// drawWindow places an n-job window uniformly at random in t. A trace no
// longer than n gives the window at 0 and draws nothing from rng.
func drawWindow(t *trace.Trace, n int, rng *stats.RNG) window {
	w := window{n: n}
	if t.Len() > n {
		w.start = rng.Intn(t.Len() - n + 1)
	}
	return w
}

// jobs clones the window's jobs with submit times rebased to 0.
func (w window) jobs(t *trace.Trace) *trace.Trace { return trace.Slice(t, w.start, w.n) }
