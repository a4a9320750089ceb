package cluster

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/oracle"
	"repro/internal/stats"
)

// ---- the oracle mirror ----

// oracleReserve applies a reservation Profile.Reserve was asked for to the
// oracle's flat list and reports whether the profile should have accepted
// it. A Profile holds nothing before its start, so the window is cut there; a
// window entirely before the start is accepted (within capacity) and
// reserves nothing.
func oracleReserve(o *oracle.Profile, from, start, end int64, procs int) bool {
	if procs <= 0 || end <= start {
		return false
	}
	if start = max(start, from); end <= start {
		return procs <= o.Procs
	}
	return o.Reserve(start, end, procs, 0)
}

// checkSkyline requires p to be canonical (strictly increasing times, no two
// adjacent segments with one free count) and its free function to equal the
// oracle's free processors (or, with mem, memory) at every boundary of
// either, from the profile start on. Both functions are constant between
// consecutive points of that union, so they agree everywhere from the start
// on; and a canonical piecewise-constant form of a function is unique, so p
// holds exactly the segments of the oracle's free function.
func checkSkyline(t *testing.T, label string, p *Profile, o *oracle.Profile, mem bool) {
	t.Helper()
	for i := 1; i < len(p.segs); i++ {
		if p.segs[i].Time <= p.segs[i-1].Time || p.segs[i].Free == p.segs[i-1].Free {
			t.Fatalf("%s: segments %d,%d not canonical: %+v", label, i-1, i, p.segs)
		}
	}
	bounds := o.Boundaries()
	for _, s := range p.segs {
		bounds = append(bounds, s.Time)
	}
	for _, at := range bounds {
		if at < p.segs[0].Time {
			continue
		}
		w, wm := o.FreeAt(at)
		if mem {
			w = wm
		}
		if got := p.FreeAt(at); got != w {
			t.Fatalf("%s: FreeAt(%d) = %d, oracle %d", label, at, got, w)
		}
	}
}

// ---- direct edge-case unit tests ----

func TestProfileFreeAtBeforeStart(t *testing.T) {
	p := NewProfile(10, 100)
	if got := p.FreeAt(0); got != 10 {
		t.Fatalf("FreeAt before profile start = %d, want 10", got)
	}
	_ = p.Reserve(100, 200, 4)
	if got := p.FreeAt(0); got != 6 {
		t.Fatalf("FreeAt before start must report the first segment (6), got %d", got)
	}
	if got := p.FreeAt(250); got != 10 {
		t.Fatalf("FreeAt on the open tail = %d, want 10", got)
	}
}

func TestProfileMinFreeBeforeStart(t *testing.T) {
	p := NewProfile(8, 100)
	_ = p.Reserve(100, 200, 3)
	if got := p.MinFree(0, 50); got != 8 {
		t.Fatalf("MinFree on a window entirely before the profile = %d, want total 8", got)
	}
	if got := p.MinFree(0, 150); got != 5 {
		t.Fatalf("MinFree straddling the profile start = %d, want 5", got)
	}
	if got := p.MinFree(50, 50); got != 5 {
		t.Fatalf("empty window MinFree must report FreeAt(start)=5, got %d", got)
	}
}

func TestProfileMinFreeBoundaryEqualWindows(t *testing.T) {
	p := NewProfile(8, 0)
	_ = p.Reserve(10, 20, 3)
	// Window ending exactly at a reservation start must not see it.
	if got := p.MinFree(0, 10); got != 8 {
		t.Fatalf("MinFree(0,10) = %d, want 8 (end-exclusive)", got)
	}
	// Window starting exactly at a reservation end must not see it.
	if got := p.MinFree(20, 30); got != 8 {
		t.Fatalf("MinFree(20,30) = %d, want 8", got)
	}
	// Window exactly coinciding with the reservation.
	if got := p.MinFree(10, 20); got != 5 {
		t.Fatalf("MinFree(10,20) = %d, want 5", got)
	}
}

func TestProfileMinFreeOpenTail(t *testing.T) {
	p := NewProfile(8, 0)
	_ = p.Reserve(0, 100, 2)
	if got := p.MinFree(50, 1<<40); got != 6 {
		t.Fatalf("MinFree over reservation + open tail = %d, want 6", got)
	}
	if got := p.MinFree(100, 1<<40); got != 8 {
		t.Fatalf("MinFree on the open tail alone = %d, want 8", got)
	}
}

func TestProfileFindStartProcsAboveTotal(t *testing.T) {
	p := NewProfile(4, 0)
	_ = p.Reserve(0, 50, 4)
	// procs > total clamps to the machine size: the earliest instant the
	// whole machine is free.
	if got := p.FindStart(0, 10, 9); got != 50 {
		t.Fatalf("FindStart with procs > total = %d, want 50", got)
	}
}

func TestProfileFindStartBeforeStart(t *testing.T) {
	p := NewProfile(4, 100)
	if got := p.FindStart(0, 10, 4); got != 0 {
		t.Fatalf("FindStart before profile start on an idle machine = %d, want 0", got)
	}
	_ = p.Reserve(100, 200, 4)
	// A window from t=95 overlaps the full reservation at 100; first fit is 200.
	if got := p.FindStart(95, 10, 4); got != 200 {
		t.Fatalf("FindStart(95,10,4) = %d, want 200", got)
	}
	// A 5-second window starting at 95 clears before the reservation.
	if got := p.FindStart(95, 5, 4); got != 95 {
		t.Fatalf("FindStart(95,5,4) = %d, want 95", got)
	}
}

func TestProfileFindStartZeroDuration(t *testing.T) {
	p := NewProfile(4, 0)
	_ = p.Reserve(0, 10, 4)
	// duration <= 0 is clamped to 1.
	if got := p.FindStart(0, 0, 1); got != 10 {
		t.Fatalf("FindStart with zero duration = %d, want 10", got)
	}
}

func TestProfileReserveExtendsTail(t *testing.T) {
	p := NewProfile(4, 0)
	if err := p.Reserve(1000, 2000, 2); err != nil {
		t.Fatal(err)
	}
	if p.FreeAt(500) != 4 || p.FreeAt(1500) != 2 || p.FreeAt(2500) != 4 {
		t.Fatalf("tail-extending reservation wrong: %d %d %d",
			p.FreeAt(500), p.FreeAt(1500), p.FreeAt(2500))
	}
}

// ---- checkpoint / rollback ----

func TestProfileRollbackRestoresExactly(t *testing.T) {
	p := NewProfile(16, 0)
	_ = p.Reserve(0, 100, 5)
	_ = p.Reserve(50, 150, 3)
	before := append([]segment(nil), p.segs...)

	mark := p.Checkpoint()
	if err := p.Reserve(10, 60, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.Reserve(120, 300, 8); err != nil {
		t.Fatal(err)
	}
	_ = p.Reserve(0, 1000, 100) // rejected: must not be journaled
	p.Rollback(mark)

	if len(p.segs) != len(before) {
		t.Fatalf("segment count after rollback: %d, want %d", len(p.segs), len(before))
	}
	for i := range before {
		if p.segs[i] != before[i] {
			t.Fatalf("segment %d after rollback: %+v, want %+v", i, p.segs[i], before[i])
		}
	}
}

func TestProfileNestedCheckpoints(t *testing.T) {
	p := NewProfile(8, 0)
	outer := p.Checkpoint()
	_ = p.Reserve(0, 10, 2)
	afterOuter := append([]segment(nil), p.segs...)

	inner := p.Checkpoint()
	_ = p.Reserve(5, 20, 3)
	_ = p.Reserve(0, 4, 1)
	p.Rollback(inner)

	if len(p.segs) != len(afterOuter) {
		t.Fatalf("inner rollback: %d segments, want %d", len(p.segs), len(afterOuter))
	}
	for i := range afterOuter {
		if p.segs[i] != afterOuter[i] {
			t.Fatalf("inner rollback segment %d: %+v, want %+v", i, p.segs[i], afterOuter[i])
		}
	}
	p.Rollback(outer)
	if len(p.segs) != 1 || p.segs[0] != (segment{Time: 0, Free: 8}) {
		t.Fatalf("outer rollback did not restore the fresh profile: %+v", p.segs)
	}
}

func TestProfileRollbackFuzz(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := stats.NewRNG(seed)
		p := NewProfile(32, 0)
		// A random base load.
		for i := 0; i < 10; i++ {
			procs := r.Intn(8) + 1
			dur := r.Int63n(300) + 1
			start := p.FindStart(r.Int63n(500), dur, procs)
			_ = p.Reserve(start, start+dur, procs)
		}
		before := append([]segment(nil), p.segs...)
		mark := p.Checkpoint()
		// A random trial: FindStart-placed and arbitrary (possibly rejected)
		// reservations interleaved.
		for i := 0; i < 15; i++ {
			procs := r.Intn(40) + 1 // occasionally > total: always rejected
			dur := r.Int63n(400) + 1
			if r.Bool(0.5) {
				start := p.FindStart(r.Int63n(800), dur, procs)
				_ = p.Reserve(start, start+dur, procs)
			} else {
				start := r.Int63n(1200) - 100
				_ = p.Reserve(start, start+dur, procs)
			}
		}
		p.Rollback(mark)
		if len(p.segs) != len(before) {
			t.Fatalf("seed %d: %d segments after rollback, want %d", seed, len(p.segs), len(before))
		}
		for i := range before {
			if p.segs[i] != before[i] {
				t.Fatalf("seed %d: segment %d = %+v, want %+v", seed, i, p.segs[i], before[i])
			}
		}
	}
}

// ---- differential fuzz against the oracle ----

// TestProfileDifferentialOracle drives the skyline and the oracle's
// flat reservation list through identical random op sequences — reserves
// (feasible and infeasible, in- and out-of-range), FreeAt, MinFree and
// FindStart probes — and requires identical answers throughout, and after
// every step the oracle's free function segment for segment.
func TestProfileDifferentialOracle(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := stats.NewRNG(seed)
		total := []int{1, 4, 32, 100}[r.Intn(4)]
		from := r.Int63n(200) - 100
		p := NewProfile(total, from)
		o := &oracle.Profile{Procs: total}
		// The documented clamps: procs to the machine, durations to one second,
		// instants before the profile start to the start.
		findStart := func(after, dur int64, procs int) int64 {
			return o.FindStart(after, max(dur, 1), min(procs, total), 0)
		}
		freeAt := func(at int64) int {
			free, _ := o.FreeAt(max(at, from))
			return free
		}
		for step := 0; step < 120; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			switch r.Intn(4) {
			case 0: // reserve, FindStart-placed
				procs := r.Intn(total+4) + 1
				dur := r.Int63n(200) + 1
				after := from + r.Int63n(400) - 50
				s := p.FindStart(after, dur, procs)
				if w := findStart(after, dur, procs); s != w {
					t.Fatalf("%s: FindStart(%d,%d,%d) = %d, oracle %d", label, after, dur, procs, s, w)
				}
				err := p.Reserve(s, s+dur, procs)
				if ok := oracleReserve(o, from, s, s+dur, procs); (err == nil) != ok {
					t.Fatalf("%s: reserve [%d,%d)x%d: profile %v, oracle %v", label, s, s+dur, procs, err, ok)
				}
			case 1: // arbitrary reserve (often rejected)
				procs := r.Intn(total+4) + 1
				start := from + r.Int63n(500) - 150
				end := start + r.Int63n(250) - 20
				err := p.Reserve(start, end, procs)
				if ok := oracleReserve(o, from, start, end, procs); (err == nil) != ok {
					t.Fatalf("%s: reserve [%d,%d)x%d: profile %v, oracle %v", label, start, end, procs, err, ok)
				}
			case 2: // point and range probes
				at := from + r.Int63n(500) - 150
				if a, b := p.FreeAt(at), freeAt(at); a != b {
					t.Fatalf("%s: FreeAt(%d) = %d, oracle %d", label, at, a, b)
				}
				lo := from + r.Int63n(500) - 150
				hi := lo + r.Int63n(300) - 30
				want := freeAt(lo) // an empty window reports FreeAt(lo)
				if hi > lo {
					want, _ = o.MinFree(lo, hi)
				}
				if a := p.MinFree(lo, hi); a != want {
					t.Fatalf("%s: MinFree(%d,%d) = %d, oracle %d", label, lo, hi, a, want)
				}
			case 3: // FindStart probe, including zero/negative durations
				procs := r.Intn(total+4) + 1
				dur := r.Int63n(200) - 10
				after := from + r.Int63n(500) - 150
				if a, b := p.FindStart(after, dur, procs), findStart(after, dur, procs); a != b {
					t.Fatalf("%s: FindStart(%d,%d,%d) = %d, oracle %d", label, after, dur, procs, a, b)
				}
			}
			checkSkyline(t, label, p, o, false)
		}
	}
}

// TestProfileDifferentialNaive checks long FindStart-placed reservation
// sequences, the shape every backfilling round builds, against the oracle:
// each found start, each reserve's verdict and, at the end, the whole free
// function. The deep row then covers the deep-backlog regime.
func TestProfileDifferentialNaive(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		r := stats.NewRNG(seed)
		total := []int{2, 16, 64}[r.Intn(3)]
		p := NewProfile(total, 0)
		o := &oracle.Profile{Procs: total}
		for i := 0; i < 60; i++ {
			procs := r.Intn(total) + 1
			dur := r.Int63n(150) + 1
			after := r.Int63n(1000)
			start := p.FindStart(after, dur, procs)
			if w := o.FindStart(after, dur, procs, 0); start != w {
				t.Fatalf("seed %d op %d: FindStart(%d,%d,%d) = %d, oracle %d", seed, i, after, dur, procs, start, w)
			}
			err := p.Reserve(start, start+dur, procs)
			if ok := o.Reserve(start, start+dur, procs, 0); (err == nil) != ok {
				t.Fatalf("seed %d op %d: reserve [%d,%d)x%d: skyline %v, oracle %v",
					seed, i, start, start+dur, procs, err, ok)
			}
		}
		checkSkyline(t, fmt.Sprintf("seed %d", seed), p, o, false)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		deepNaiveRow(t, seed)
	}
}

// deepNaiveRow is TestProfileDifferentialNaive's deep row: 800 staggered
// reservations on 512 processors (over 1,500 segments), FindStart and
// MinFree probes reaching past the last reservation compared against the
// oracle, then a rollback across half the skyline compared segment for
// segment with the state at the checkpoint.
func deepNaiveRow(t *testing.T, seed uint64) {
	t.Helper()
	const total, jobs = 512, 800
	label := fmt.Sprintf("deep seed %d", seed)
	holds := deepHolds(total, jobs, stats.NewRNG(seed))
	p, mark, atMark := deepProfile(t, total, holds)
	o := &oracle.Profile{Procs: total}
	for _, h := range holds {
		if !o.Reserve(h.start, h.end, h.procs, 0) {
			t.Fatalf("%s: oracle rejected %+v", label, h)
		}
	}
	if p.Segments() < 1500 {
		t.Fatalf("%s: only %d segments", label, p.Segments())
	}
	checkSkyline(t, label, p, o, false)
	probe := stats.NewRNG(seed + 100)
	horizon := int64(jobs) * 100
	for q := 0; q < 200; q++ {
		procs := probe.Intn(total+10) + 1
		dur := probe.Int63n(500) + 1
		after := probe.Int63n(horizon + 2000)
		if a, w := p.FindStart(after, dur, procs), o.FindStart(after, dur, min(procs, total), 0); a != w {
			t.Fatalf("%s probe %d: FindStart(%d,%d,%d) = %d, oracle %d", label, q, after, dur, procs, a, w)
		}
		lo := probe.Int63n(horizon + 2000)
		hi := lo + probe.Int63n(3000) - 100
		w, _ := o.MinFree(lo, hi) // an empty window reports FreeAt(lo), as MinFree does
		if a := p.MinFree(lo, hi); a != w {
			t.Fatalf("%s probe %d: MinFree(%d,%d) = %d, oracle %d", label, q, lo, hi, a, w)
		}
	}
	p.Rollback(mark)
	if len(p.segs) != len(atMark) {
		t.Fatalf("%s: %d segments after rollback, %d at the checkpoint", label, len(p.segs), len(atMark))
	}
	for i := range atMark {
		if p.segs[i] != atMark[i] {
			t.Fatalf("%s: segment %d after rollback = %+v, at the checkpoint %+v", label, i, p.segs[i], atMark[i])
		}
	}
}

// deepHolds draws n staggered, non-overlapping reservations: each one adds a
// reserved segment and a full-capacity gap, so the skyline reaches ~2n
// segments.
func deepHolds(total, n int, r *stats.RNG) []resv {
	hs := make([]resv, n)
	for i := range hs {
		procs := r.Intn(total-1) + 1
		start := int64(i) * 100
		hs[i] = resv{start: start, end: start + r.Int63n(60) + 20, procs: procs}
	}
	return hs
}

// deepProfile reserves holds on a fresh profile, checkpointing halfway. It
// returns the mark and a copy of the segments at the checkpoint.
func deepProfile(t *testing.T, total int, holds []resv) (p *Profile, mark int, atMark []segment) {
	t.Helper()
	p = NewProfile(total, 0)
	for i, h := range holds {
		if i == len(holds)/2 {
			mark, atMark = p.Checkpoint(), append([]segment(nil), p.segs...)
		}
		if err := p.Reserve(h.start, h.end, h.procs); err != nil {
			t.Fatal(err)
		}
	}
	return p, mark, atMark
}

// TestProfileWalkAllocs pins the walk at zero allocations on a deep
// skyline: FindStart, MinFree, ReserveFound and Rollback run per job in
// every profile-based round, so an allocation there regresses the hot path.
func TestProfileWalkAllocs(t *testing.T) {
	p, _, _ := deepProfile(t, 512, deepHolds(512, 800, stats.NewRNG(3)))
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		after := int64(i%800) * 100
		dur := int64(i%900) + 30
		procs := i%500 + 1
		mark := p.Checkpoint()
		s := p.FindStart(after, dur, procs)
		_ = p.MinFree(after, after+int64(i%5000)+100)
		if err := p.ReserveFound(s, s+dur, procs); err != nil {
			t.Fatal(err)
		}
		p.Rollback(mark)
		i++
	})
	if allocs != 0 {
		t.Fatalf("FindStart/MinFree/ReserveFound/Rollback allocate %.1f allocs/op, want 0", allocs)
	}
}

// TestProfileTrimKeepsStorage pins Trim's storage discipline: it drops the
// past without giving the array's front away, so a rebuild after a run of
// trims (Reset, ResetSpans) and a reserve that grows a trimmed skyline reuse
// the one array and allocate nothing. The skyline itself is pinned against
// the oracle by the Trim differentials.
func TestProfileTrimKeepsStorage(t *testing.T) {
	spans := make([]Span, 64)
	var p Profile
	cycle := func() {
		for i := range spans {
			spans[i] = Span{End: int64(10 * (i + 1)), Procs: 1}
		}
		p.ResetSpans(128, 0, spans)
		for at := int64(5); at < 640; at += 10 {
			p.Trim(at)
			if err := p.Reserve(at, at+3, 1); err != nil {
				t.Fatal(err)
			}
		}
		p.Reset(128, 0)
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("a rebuild-and-trim cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestProfileCanonicalForm pins the representation invariant the O(touched)
// rollback relies on: no two adjacent segments ever share a free count.
func TestProfileCanonicalForm(t *testing.T) {
	r := stats.NewRNG(7)
	p := NewProfile(24, 0)
	check := func() {
		for i := 1; i < len(p.segs); i++ {
			if p.segs[i].Free == p.segs[i-1].Free {
				t.Fatalf("adjacent segments %d,%d share free=%d: %+v",
					i-1, i, p.segs[i].Free, p.segs)
			}
			if p.segs[i].Time <= p.segs[i-1].Time {
				t.Fatalf("segments out of order at %d: %+v", i, p.segs)
			}
		}
	}
	for i := 0; i < 200; i++ {
		procs := r.Intn(24) + 1
		dur := r.Int63n(100) + 1
		start := p.FindStart(r.Int63n(1000), dur, procs)
		_ = p.Reserve(start, start+dur, procs)
		check()
		if r.Bool(0.2) {
			mark := p.Checkpoint()
			s := p.FindStart(r.Int63n(1000), 50, 3)
			_ = p.Reserve(s, s+50, 3)
			check()
			p.Rollback(mark)
			check()
		}
	}
}

// rangeOp is one addRange call of TestProfileAddRangeFuzz's naive model.
type rangeOp struct {
	start, end int64
	delta      int
}

// checkRanges requires p to be canonical and its free function, from its
// start on, to be total plus the sum of every op's delta over the op's
// window: the naive model, probed at every boundary of either side.
func checkRanges(t *testing.T, label string, p *Profile, total int, ops []rangeOp) {
	t.Helper()
	for i := 1; i < len(p.segs); i++ {
		if p.segs[i].Time <= p.segs[i-1].Time || p.segs[i].Free == p.segs[i-1].Free {
			t.Fatalf("%s: segments %d,%d not canonical: %+v", label, i-1, i, p.segs)
		}
	}
	from := p.segs[0].Time
	bounds := []int64{from}
	for _, s := range p.segs {
		bounds = append(bounds, s.Time)
	}
	for _, op := range ops {
		bounds = append(bounds, op.start, op.end)
	}
	for _, at := range bounds {
		if at < from {
			continue
		}
		want := total
		for _, op := range ops {
			if op.start <= at && at < op.end {
				want += op.delta
			}
		}
		if got := p.FreeAt(at); got != want {
			t.Fatalf("%s: FreeAt(%d) = %d, naive %d; segments %+v", label, at, got, want, p.segs)
		}
	}
}

// TestProfileAddRangeFuzz drives the one-pass addRange with small deltas of
// either sign on a short time grid, so that ranges often start or end on a
// boundary, split one segment at both ends, and merge at either seam or at
// both, interleaved with trims and with ranges at or before the profile
// start and past its last boundary, and checks every step against the naive
// model, with a FindStartBefore probe against FindStart. Every fourth step a
// checkpoint, a run of reserves and a rollback must give back the segments
// byte for byte.
func TestProfileAddRangeFuzz(t *testing.T) {
	splits, left, right, both := 0, 0, 0, 0
	for seed := uint64(1); seed <= 60; seed++ {
		r := stats.NewRNG(seed)
		const total = 8
		var p Profile
		p.Reset(total, r.Int63n(20))
		var ops []rangeOp
		for step := range 150 {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			from, last := p.segs[0].Time, p.segs[len(p.segs)-1].Time
			op := rangeOp{delta: r.Intn(5) - 2}
			n := len(p.segs)
			switch r.Intn(7) {
			case 0: // at or before the profile start
				op.start = from - r.Int63n(10)
				op.end = from + r.Int63n(30) - 5
			case 1: // past the last boundary
				op.start = last + r.Int63n(10)
				op.end = op.start + r.Int63n(10)
			case 2:
				p.Trim(from + r.Int63n(20))
				checkRanges(t, label+" trim", &p, total, ops)
				continue
			case 3: // from a boundary, by the step that merges its left seam
				i := r.Intn(n)
				op.start, op.end = p.segs[i].Time, p.segs[i].Time+1+r.Int63n(25)
				if i > 0 && r.Bool(0.8) {
					op.delta = p.segs[i-1].Free - p.segs[i].Free
				}
				if k := i + 1 + r.Intn(3); k < n && r.Bool(0.5) {
					op.end = p.segs[k].Time
				}
			case 4: // to a boundary, by the step that merges its right seam
				k := r.Intn(n)
				op.start, op.end = p.segs[k].Time-1-r.Int63n(25), p.segs[k].Time
				if k > 0 && r.Bool(0.8) {
					op.delta = p.segs[k].Free - p.segs[k-1].Free
				}
			default:
				op.start = from + r.Int63n(60) - 5
				op.end = op.start + r.Int63n(25)
			}
			// The boundaries the range needs; those it then loses merged.
			needs := func(at int64) int {
				if at <= from || slices.ContainsFunc(p.segs, func(s segment) bool { return s.Time == at }) {
					return 0
				}
				return 1
			}
			splitL, splitR := needs(op.start), needs(op.end)
			p.addRange(op.start, op.end, op.delta)
			if op.end > max(op.start, from) && op.delta != 0 {
				merged := splitL + splitR - (len(p.segs) - n)
				switch {
				case splitL+splitR == 2:
					splits++
				case merged == 2:
					both++
				case merged == 1 && splitL == 1:
					right++
				case merged == 1 && splitR == 1:
					left++
				}
			}
			if op.end > op.start {
				ops = append(ops, op)
			}
			checkRanges(t, label, &p, total, ops)
			// FindStartBefore answers as FindStart below its cut, and past
			// the cut stops at or after it, no later than the answer.
			after, before := p.segs[0].Time+r.Int63n(60)-5, p.segs[0].Time+r.Int63n(80)
			dur, procs := 1+r.Int63n(20), 1+r.Intn(total)
			want := p.FindStart(after, dur, procs)
			if got := p.FindStartBefore(after, before, dur, procs); got != want && (want < before || got < before || got > want) {
				t.Fatalf("%s: FindStartBefore(%d, %d, %d, %d) = %d, FindStart %d", label, after, before, dur, procs, got, want)
			}
			if step%4 == 0 {
				before := append([]segment(nil), p.segs...)
				mark := p.Checkpoint()
				for range 1 + r.Intn(6) {
					s := p.segs[0].Time + r.Int63n(60) - 5
					_ = p.Reserve(s, s+1+r.Int63n(20), 1+r.Intn(3))
				}
				p.Rollback(mark)
				if !slices.Equal(p.segs, before) {
					t.Fatalf("%s: rollback gave %+v, want %+v", label, p.segs, before)
				}
			}
		}
	}
	if splits < 200 || left < 200 || right < 200 || both < 50 {
		t.Fatalf("%d ranges split a segment at both ends, %d merged at the left seam, %d at the right, %d at both: the fuzz is not reaching them",
			splits, left, right, both)
	}
	t.Logf("%d splits at both ends, %d left merges, %d right, %d both", splits, left, right, both)
}

// TestProfileAddRangeGrowsByTwo reserves a window inside one segment, which
// needs two new boundaries, on a full array: with no trimmed prefix, with a
// prefix of one (too little room to slide into) and with a prefix of two.
// Each must leave the right skyline, and the one with room at the front must
// slide into it rather than allocate.
func TestProfileAddRangeGrowsByTwo(t *testing.T) {
	for prefix := range 3 {
		var p Profile
		p.Reset(10, 0)
		for k := range 3 {
			if err := p.Reserve(int64(10*k), int64(10*k+5), 1); err != nil {
				t.Fatal(err)
			}
		}
		p.segs = slices.Clip(p.segs)
		p.buf = p.segs
		p.Trim(int64(5 * prefix))
		if len(p.segs) != cap(p.segs) {
			t.Fatalf("prefix %d: %d segments in an array of %d", prefix, len(p.segs), cap(p.segs))
		}
		array := &p.buf[0]
		if err := p.Reserve(31, 33, 4); err != nil {
			t.Fatal(err)
		}
		want := []segment{{0, 9}, {5, 10}, {10, 9}, {15, 10}, {20, 9}, {25, 10}, {31, 6}, {33, 10}}[prefix:]
		want[0].Time = int64(5 * prefix)
		if !slices.Equal(p.segs, want) {
			t.Fatalf("prefix %d: %+v, want %+v", prefix, p.segs, want)
		}
		if moved := &p.buf[0] != array; moved != (prefix < 2) {
			t.Fatalf("prefix %d: array replaced %v", prefix, moved)
		}
	}
}
