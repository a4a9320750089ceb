package core

import (
	"sync"
	"sync/atomic"

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

// fanOut calls fn(i) for each i in [0, n) on at most workers goroutines
// (at least 1); fn writes its result into slot i. Indices start in order and
// none starts once one has failed, so the lowest-index error, which is
// returned, is the same at any worker count.
func fanOut(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(max(workers, 1), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
