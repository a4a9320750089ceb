// Package cluster models the future availability of the homogeneous HPC
// machine the paper schedules on (§3.2: "we assume the HPC environment is
// homogeneous"): the skyline Profile of free processors over time that
// reservation-based backfilling plans on, and VecProfile, which adds an
// optional memory dimension (in abstract units; a zero capacity disables
// it and keeps every operation identical to the procs-only skyline); and
// Cluster, the machine's free processors and memory now. Which jobs run is
// the simulator's bookkeeping (internal/sim), not this package's.
package cluster

import (
	"fmt"
	"slices"
)

// Profile is a piecewise-constant availability profile: the number of free
// processors as a function of future time. Conservative backfilling keeps one
// reservation per queued job in such a profile; EASY derives its single
// shadow-time reservation from it as well.
//
// The representation is a skyline: segments sorted by start time,
// always coalesced (no two adjacent segments share a Free count), looked up
// by binary search. All queries run in O(log S + touched segments) instead of
// scanning from the first segment, and FindStart is a single monotonic
// candidate walk instead of a per-boundary MinFree re-scan (DESIGN.md §9).
//
// Reservations can be undone transactionally: Checkpoint marks the current
// state and journals every subsequent Reserve; Rollback undoes them in
// O(touched segments) by applying the inverse range updates in reverse
// order. Because the coalesced segment list is the unique canonical
// representation of the free function, a rollback restores the segment slice
// byte-identically. No backfiller uses the pair any more (conservative
// backfilling carries one plan across rounds instead, DESIGN.md §9); only
// benchmark code calls it (benchmark/replay.go and the root bench_test.go).
type Profile struct {
	total int
	segs  []segment // sorted by Time; segs[i] spans [segs[i].Time, segs[i+1].Time)
	// buf is segs' backing array from its first element, and segs starts
	// off segments into it: Trim drops the past by advancing segs, and
	// slides it back to the front once the dropped prefix outgrows it or
	// it runs out of room, so Reset reuses the whole array.
	buf []segment
	off int

	// journal records reserves made while a checkpoint is active (marks > 0)
	// so Rollback can undo them; Reset and Rollback shrink it in place.
	journal []resv
	marks   int
}

type segment struct {
	Time int64
	Free int
}

// resv is one journaled reservation (the arguments of a successful Reserve).
type resv struct {
	start, end int64
	procs      int
}

// NewProfile creates a profile with all processors free from time `from`
// onwards.
func NewProfile(total int, from int64) *Profile {
	if total <= 0 {
		panic(fmt.Sprintf("cluster: non-positive profile capacity %d", total))
	}
	p := &Profile{}
	p.Reset(total, from)
	return p
}

// Segments returns the current skyline depth (number of coalesced segments).
// Deep-backlog benchmarks and tests use it to confirm they are in the regime
// they mean to exercise.
func (p *Profile) Segments() int { return len(p.segs) }

// Reset reinitialises the profile in place — all processors free from time
// `from` onwards — reusing the segment and journal storage. Reservation-based
// backfillers rebuild a profile on every round; resetting one instead of
// allocating keeps that loop garbage-free. Any open checkpoints are
// discarded.
func (p *Profile) Reset(total int, from int64) {
	if total <= 0 {
		panic(fmt.Sprintf("cluster: non-positive profile capacity %d", total))
	}
	p.total = total
	p.segs = append(p.buf[:0], segment{Time: from, Free: total})
	p.buf, p.off = p.segs, 0
	p.journal = p.journal[:0]
	p.marks = 0
}

// Span is one bulk reservation for ResetSpans: Procs processors held from
// the profile start until End. Mem is the memory dimension's demand, used
// only by VecProfile.ResetSpans; the scalar profile ignores it.
type Span struct {
	End   int64
	Procs int
	Mem   int
}

// ResetSpans reinitialises the profile to capacity total from `from` with
// every span reserved over [from, span.End) — exactly equivalent to Reset
// followed by one Reserve per span (in any order; the free function is
// order-independent and the coalesced representation canonical), but built
// in a single sorted sweep: O(R log R) instead of R incremental reserves of
// O(log S + touched) each. The spans slice is reordered in place.
//
// Profile-based backfillers rebuild their base profile from the running set
// every round; this is that round prologue's fast path. Spans that could not
// all be reserved (over capacity, non-positive procs, End <= from) fall back
// to the literal reserve-per-span sequence so rejection behaviour matches
// the incremental path exactly.
func (p *Profile) ResetSpans(total int, from int64, spans []Span) {
	p.Reset(total, from)
	if len(spans) == 0 {
		return
	}
	sum := 0
	for _, s := range spans {
		if s.Procs <= 0 || s.End <= from {
			sum = total + 1 // force the fallback
			break
		}
		sum += s.Procs
	}
	if sum > total {
		for _, s := range spans {
			_ = p.Reserve(from, s.End, s.Procs)
		}
		return
	}
	sortSpans(spans)
	free := total - sum
	p.segs = append(p.segs[:0], segment{Time: from, Free: free})
	for i := 0; i < len(spans); {
		end := spans[i].End
		for ; i < len(spans) && spans[i].End == end; i++ {
			free += spans[i].Procs
		}
		// free strictly increases (procs > 0), so the skyline stays canonical.
		p.segs = append(p.segs, segment{Time: end, Free: free})
	}
	p.buf = p.segs
}

// sortSpans orders spans by End. Running sets are small (tens of jobs), so a
// direct insertion sort beats the generic comparator for the common case;
// larger sets fall through to the library sort. Equal ends may land in any
// order — ResetSpans only accumulates them, so the profile is unaffected.
func sortSpans(spans []Span) {
	if len(spans) > 64 {
		slices.SortFunc(spans, func(a, b Span) int {
			switch {
			case a.End < b.End:
				return -1
			case a.End > b.End:
				return 1
			default:
				return 0
			}
		})
		return
	}
	for i := 1; i < len(spans); i++ {
		s := spans[i]
		j := i - 1
		for j >= 0 && spans[j].End > s.End {
			spans[j+1] = spans[j]
			j--
		}
		spans[j+1] = s
	}
}

// seek returns the index of the segment containing t (the last segment whose
// start is <= t), clamped to 0 for times before the profile start.
func (p *Profile) seek(t int64) int {
	lo, hi := 0, len(p.segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.segs[mid].Time <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// FreeAt returns the free processors at time t. Times before the profile
// start report the first segment's value.
func (p *Profile) FreeAt(t int64) int {
	return p.segs[p.seek(t)].Free
}

// MinFree returns the minimum free processors over [start, end). A window
// entirely before the profile start reports the full capacity (nothing is
// reserved before the profile begins); an empty window reports FreeAt(start).
func (p *Profile) MinFree(start, end int64) int {
	if end <= start {
		return p.FreeAt(start)
	}
	i := p.seek(start)
	if p.segs[i].Time >= end {
		return p.total // window entirely before the first segment
	}
	min := p.segs[i].Free
	for i++; i < len(p.segs) && p.segs[i].Time < end; i++ {
		if p.segs[i].Free < min {
			min = p.segs[i].Free
		}
	}
	return min
}

// Reserve subtracts procs free processors over [start, end). It returns an
// error (leaving the profile unchanged) if any instant in the window lacks
// capacity. While a checkpoint is active the reservation is journaled so
// Rollback can undo it.
func (p *Profile) Reserve(start, end int64, procs int) error {
	if procs <= 0 {
		return fmt.Errorf("cluster: reserve of %d procs", procs)
	}
	if end <= start {
		return fmt.Errorf("cluster: empty reservation window [%d,%d)", start, end)
	}
	if p.MinFree(start, end) < procs {
		return fmt.Errorf("cluster: insufficient capacity for %d procs in [%d,%d)", procs, start, end)
	}
	p.addRange(start, end, -procs)
	if p.marks > 0 {
		p.journal = append(p.journal, resv{start: start, end: end, procs: procs})
	}
	return nil
}

// ReserveFound is Reserve for windows the caller has just located via
// FindStart: when procs fits the machine, FindStart only returns windows
// whose every overlapping segment has Free >= procs, so the capacity
// pre-scan is skipped. The one case FindStart cannot vouch for —
// procs > Total, which it searches with a clamped value — and malformed
// windows fall back to the fully checked Reserve, keeping the observable
// behaviour (including rejections) identical.
func (p *Profile) ReserveFound(start, end int64, procs int) error {
	if procs <= 0 || procs > p.total || end <= start {
		return p.Reserve(start, end, procs)
	}
	p.addRange(start, end, -procs)
	if p.marks > 0 {
		p.journal = append(p.journal, resv{start: start, end: end, procs: procs})
	}
	return nil
}

// Checkpoint marks the current profile state and returns a mark for Rollback.
// Checkpoints nest (LIFO): roll back an inner mark before an outer one.
// Reserves made while any checkpoint is open are journaled; Reset discards
// all open checkpoints.
func (p *Profile) Checkpoint() int {
	p.marks++
	return len(p.journal)
}

// Rollback undoes every Reserve made since the matching Checkpoint by
// applying the inverse range updates in reverse order, restoring the segment
// list byte-identically in O(touched segments). The mark is consumed.
func (p *Profile) Rollback(mark int) {
	for k := len(p.journal) - 1; k >= mark; k-- {
		r := p.journal[k]
		p.addRange(r.start, r.end, r.procs)
	}
	p.journal = p.journal[:mark]
	p.marks--
}

// Trim drops the profile's past: afterwards it starts at t, and the free
// function from t on is unchanged. A t at or before the profile start
// changes nothing. Conservative backfilling trims the plan it carries from
// round to round this way instead of rebuilding it. Trim copies nothing
// until the dropped segments outnumber the live ones, and then only the
// live ones, so a trim costs O(log S) amortised. Open checkpoints stay
// valid: a rollback still restores the free function from t on.
func (p *Profile) Trim(t int64) {
	i := p.seek(t)
	if p.segs[i].Time > t {
		return
	}
	p.segs[i].Time = t
	p.segs, p.off = p.segs[i:], p.off+i
	if p.off > len(p.segs) {
		p.slide()
	}
}

// slide moves the skyline to the front of its backing array.
func (p *Profile) slide() {
	p.segs, p.off = append(p.buf[:0], p.segs...), 0
}

// grow makes room for one more segment: at the front of the array when
// trims left room there, in a larger array otherwise.
func (p *Profile) grow() {
	if p.off > 0 {
		p.slide()
		return
	}
	p.segs = slices.Grow(p.segs, 1)
	p.buf = p.segs
}

// FindStart returns the earliest time >= after at which procs processors are
// simultaneously free for `duration` seconds.
//
// The earliest feasible start is either `after` itself or a segment boundary
// (the free function is piecewise constant, so feasibility can only change at
// boundaries). The walk advances a single candidate monotonically: whenever a
// segment inside the candidate's window lacks capacity, every start up to
// that segment's end would still overlap it, so the candidate jumps straight
// there. Each segment between `after` and the answer is visited at most once
// — O(log S + walked) total, not O(boundaries x MinFree).
func (p *Profile) FindStart(after, duration int64, procs int) int64 {
	if procs > p.total {
		procs = p.total // cannot exceed machine; caller validates job size
	}
	if duration <= 0 {
		duration = 1
	}
	cand := after
	end := cand + duration
	n := len(p.segs)
	for i := p.seek(cand); ; {
		if p.segs[i].Time >= end {
			return cand // window cleared before this segment begins
		}
		if p.segs[i].Free >= procs {
			i++
			if i >= n {
				return cand // open-ended tail covers the rest of the window
			}
			continue
		}
		// Blocking segment: every candidate before its end still overlaps it.
		if i+1 >= n {
			// A blocked open-ended tail cannot clear (unreachable for finite
			// reservations — the tail is always fully free); mirror the
			// pre-rewrite fallback of the last boundary.
			last := p.segs[n-1].Time
			if last < after {
				last = after
			}
			return last
		}
		i++
		cand = p.segs[i].Time
		end = cand + duration
	}
}

// ensureBoundary guarantees a segment starts exactly at t and returns its
// index. Times at or before the profile start map to segment 0; times past
// the last boundary extend the skyline.
func (p *Profile) ensureBoundary(t int64) int {
	if t <= p.segs[0].Time {
		return 0
	}
	lo, hi := 0, len(p.segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.segs[mid].Time < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.segs) && p.segs[lo].Time == t {
		return lo
	}
	if len(p.segs) == cap(p.segs) {
		p.grow()
	}
	p.segs = append(p.segs, segment{})
	copy(p.segs[lo+1:], p.segs[lo:])
	p.segs[lo] = segment{Time: t, Free: p.segs[lo-1].Free}
	return lo
}

// addRange adds delta to the free count of every instant in [start, end)
// (clamped to the profile start) and re-coalesces at the two seams. Interior
// segments shift uniformly, so adjacent inequality is preserved there; only
// the boundary pairs can merge, keeping the representation canonical in
// O(log S + touched segments).
func (p *Profile) addRange(start, end int64, delta int) {
	if end <= start {
		return
	}
	i := p.ensureBoundary(start)
	j := p.ensureBoundary(end)
	for k := i; k < j; k++ {
		p.segs[k].Free += delta
	}
	p.mergeAt(j) // j first: merging there leaves indices <= i untouched
	p.mergeAt(i)
}

// mergeAt removes the boundary between segments i-1 and i when both sides
// have the same free count.
func (p *Profile) mergeAt(i int) {
	if i <= 0 || i >= len(p.segs) {
		return
	}
	if p.segs[i].Free == p.segs[i-1].Free {
		p.segs = append(p.segs[:i], p.segs[i+1:]...)
	}
}
