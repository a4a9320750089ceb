package shard

import (
	"repro/internal/trace"
)

// Drain-aware window sizing (DESIGN.md §7).
//
// The warm-up exactness argument needs the flank to contain an instant where
// the window replay's state coincides with the sequential replay's; the one
// state reachable from a cold start is the empty system, so the flank must
// start at a drain point — an arrival that finds no job running or queued.
// A pre-pass over the submit-sorted trace detects drain points directly and
// derives every window's flanks from them.
//
// Drain detection replays the trace through two O(n log n) machine models —
// no engine, no backfiller, just a completion heap and a queue:
//
//   - FCFS head-blocking: jobs start strictly in submission order, the head
//     waits for its processors. The least work-conserving discipline in the
//     strategy matrix; its busy periods are the longest.
//   - Greedy fill: any queued job starts the moment its processors are free.
//     The most aggressive discipline; its busy periods are the shortest but
//     end at different instants (running long jobs earlier can push a
//     completion past a gap the FCFS model drains in).
//
// An index where BOTH models find running+queued at zero is declared a
// drain. Every real strategy (FCFS with or without EASY or conservative
// backfilling) interleaves these two extremes, so an arrival that finds both
// models empty almost surely finds the real engine empty too. "Almost": a
// backfiller may keep a job running across a gap both models drain in, so
// this is a well-grounded heuristic, not a proof — the differential tests
// pin byte-identity empirically on the surrogate archives.
//
// Each window's leading flank starts at a drain (warm-up from a coinciding
// empty state) and its trailing flank ends at a drain or the trace end
// (every job before a drain has completed before any job after it arrives,
// so later arrivals cannot perturb owned records). When a proposed cut
// cannot reach a drain economically — the latest drain at or before it lies
// at or before the previous kept cut, so warming up would re-replay at least
// the entire previous window — the cut is dropped and its window merges
// into the previous one. A workload that never drains (a saturated archive,
// or a multi-thousand-node composition that is never simultaneously empty
// over a million jobs) therefore degrades to fewer, larger windows — in the
// limit one, which is the sequential replay itself — instead of emitting
// drifting records.

// flank is one window's resolved replay range endpoints in job-index space.
type flank struct {
	lo, hi int
}

// analyzeDrains runs the pre-pass once per replay and returns the job
// indices whose arrival finds both machine models empty, sorted ascending.
// Index 0 always qualifies — a replay from a cold start is by definition at
// a drain.
func analyzeDrains(t *trace.Trace) []int {
	fcfsDrains := modelDrains(t, false)
	greedyDrains := modelDrains(t, true)
	inGreedy := make(map[int]struct{}, len(greedyDrains))
	for _, d := range greedyDrains {
		inGreedy[d] = struct{}{}
	}
	drains := []int{0}
	for _, d := range fcfsDrains {
		if _, ok := inGreedy[d]; ok && d != 0 {
			drains = append(drains, d)
		}
	}
	return drains
}

// runEntry is one running job in the model: its completion time and width.
type runEntry struct {
	end   int64
	procs int
}

// runHeap is a minimal binary min-heap on completion time.
type runHeap []runEntry

func (h *runHeap) push(e runEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].end <= (*h)[i].end {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *runHeap) pop() runEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && old[l].end < old[s].end {
			s = l
		}
		if r < n && old[r].end < old[s].end {
			s = r
		}
		if s == i {
			break
		}
		old[i], old[s] = old[s], old[i]
		i = s
	}
	return top
}

// queued is one waiting job in the model.
type queued struct {
	run   int64
	procs int
}

// modelDrains replays the trace through one discipline model and returns the
// indices whose arrival finds the model empty. greedy selects the fill
// discipline; false is FCFS head-blocking.
func modelDrains(t *trace.Trace, greedy bool) (drains []int) {
	m := t.Procs
	if m <= 0 {
		m = 1
	}
	free := m
	var running runHeap
	var queue []queued
	head := 0 // FIFO head into queue; compacted when it outgrows the tail

	// startQueued starts every queued job the discipline allows at time now.
	startQueued := func(now int64) {
		if greedy {
			for changed := true; changed; {
				changed = false
				for i := head; i < len(queue); i++ {
					if queue[i].procs <= free {
						free -= queue[i].procs
						running.push(runEntry{end: now + queue[i].run, procs: queue[i].procs})
						queue = append(queue[:i], queue[i+1:]...)
						changed = true
						break
					}
				}
			}
		} else {
			for head < len(queue) && queue[head].procs <= free {
				free -= queue[head].procs
				running.push(runEntry{end: now + queue[head].run, procs: queue[head].procs})
				head++
			}
			if head > 64 && head*2 > len(queue) {
				queue = append(queue[:0], queue[head:]...)
				head = 0
			}
		}
	}

	for i, j := range t.Jobs {
		s := j.Submit
		// Retire completions up to the arrival, starting queued jobs at each
		// completion instant.
		for len(running) > 0 && running[0].end <= s {
			e := running[0].end
			for len(running) > 0 && running[0].end == e {
				free += running.pop().procs
			}
			startQueued(e)
		}
		if i > 0 && len(running)+(len(queue)-head) == 0 {
			drains = append(drains, i)
		}
		// Arrival: effective occupancy is the engine's (runtime capped at the
		// request — schedulers kill overruns), width clamped to the machine.
		r := j.Runtime
		if j.Request > 0 && r > j.Request {
			r = j.Request
		}
		if r < 0 {
			r = 0
		}
		p := j.Procs
		if p > m {
			p = m
		}
		if p < 1 {
			p = 1
		}
		queue = append(queue, queued{run: r, procs: p})
		startQueued(s)
	}
	return drains
}

// autoFlanks resolves the window geometry for a trace cut every window
// jobs: the kept proper-region cuts and each kept window's replay range.
//
//   - A proposed cut survives only if the latest drain at or before it lies
//     strictly after the previous kept cut; otherwise warming up from that
//     drain would re-replay at least the entire previous window, so the cut
//     is dropped and the windows merge. Surviving warm-ups are therefore
//     each shorter than the window before them (total duplicated work below
//     2x sequential, and in practice a tiny fraction — drains are dense on
//     archives light enough to shard).
//   - A surviving window's leading flank is that drain; its trailing flank
//     is the earliest drain at or past the next kept cut, or the trace end.
//     The trailing reach costs little: replayWindow stops as soon as every
//     owned job has started, which on a draining workload happens well
//     before the flank is exhausted.
//
// The returned cuts always start at 0 and end at t.Len(); callers fall back
// to a sequential replay when only one window survives.
func autoFlanks(t *trace.Trace, window int) ([]int, []flank) {
	n := t.Len()
	if window >= n {
		return []int{0, n}, []flank{{lo: 0, hi: n}}
	}
	drains := analyzeDrains(t)
	kept := []int{0}
	los := []int{0}
	for c := window; c < n; c += window {
		if d := latestDrainAtOrBefore(drains, c); d > kept[len(kept)-1] {
			kept = append(kept, c)
			los = append(los, d)
		}
	}
	kept = append(kept, n)
	fl := make([]flank, len(kept)-1)
	for w := range fl {
		fl[w] = flank{lo: los[w], hi: earliestDrainAtOrAfter(drains, kept[w+1], n)}
	}
	return kept, fl
}

// latestDrainAtOrBefore returns the largest drain <= c. drains is sorted and
// starts with 0, so the result is always defined.
func latestDrainAtOrBefore(drains []int, c int) int {
	d := 0
	for lo, hi := 0, len(drains); lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if drains[mid] <= c {
			d = drains[mid]
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return d
}

// earliestDrainAtOrAfter returns the smallest drain >= c, or n when no drain
// follows c (the window then replays through the trace end).
func earliestDrainAtOrAfter(drains []int, c, n int) int {
	if c >= n {
		return n
	}
	d := n
	for lo, hi := 0, len(drains); lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if drains[mid] >= c {
			d = drains[mid]
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return d
}
