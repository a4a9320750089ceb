// Package pool holds Each, the indexed fan-out that training rollouts and
// evaluation sequences in internal/core and the grid cells of
// internal/experiments run through (DESIGN.md §6.1).
package pool

import (
	"sync"
	"sync/atomic"
)

// Each calls fn(i) for each i in [0, n) on at most workers goroutines
// (at least 1); fn writes its result into slot i. Indices start in order and
// none starts once one has failed, so the lowest-index error, which is
// returned, is the same at any worker count.
func Each(n, workers int, fn func(i int) error) error {
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
