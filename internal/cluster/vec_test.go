package cluster

import (
	"fmt"
	"testing"

	"repro/internal/oracle"
	"repro/internal/stats"
)

// ---- width-1 differential: the vector profile with the memory dimension
// off must be the scalar skyline, segment for segment ----

// TestVecProfileWidth1Differential drives a memless VecProfile and a scalar
// Profile through identical random op sequences — FindStart-placed and
// arbitrary reserves, point/range probes, checkpoint/rollback — and requires
// identical answers and an identical procs-dimension segment list throughout.
// This is the acceptance argument that the PR's generalisation costs the
// classic scalar path nothing semantically.
func TestVecProfileWidth1Differential(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := stats.NewRNG(seed)
		total := []int{1, 4, 32, 100}[r.Intn(4)]
		from := r.Int63n(200) - 100
		vec := NewVecProfile(total, 0, from)
		ref := NewProfile(total, from)
		var vmk VecMark
		var rmk int
		open := false
		for step := 0; step < 150; step++ {
			switch r.Intn(6) {
			case 0: // reserve, FindStart-placed
				procs := r.Intn(total+4) + 1
				dur := r.Int63n(200) + 1
				after := from + r.Int63n(400) - 50
				sV := vec.FindStart(after, dur, procs, 0)
				sR := ref.FindStart(after, dur, procs)
				if sV != sR {
					t.Fatalf("seed %d step %d: FindStart = %d, scalar %d", seed, step, sV, sR)
				}
				errV := vec.Reserve(sV, sV+dur, procs, 0)
				errR := ref.Reserve(sR, sR+dur, procs)
				if (errV == nil) != (errR == nil) {
					t.Fatalf("seed %d step %d: reserve: vec %v, scalar %v", seed, step, errV, errR)
				}
			case 1: // arbitrary reserve (often rejected)
				procs := r.Intn(total+4) + 1
				start := from + r.Int63n(500) - 150
				end := start + r.Int63n(250) - 20
				errV := vec.ReserveFound(start, end, procs, 0)
				errR := ref.ReserveFound(start, end, procs)
				if (errV == nil) != (errR == nil) {
					t.Fatalf("seed %d step %d: ReserveFound [%d,%d)x%d: vec %v, scalar %v",
						seed, step, start, end, procs, errV, errR)
				}
			case 2: // probes
				at := from + r.Int63n(500) - 150
				if a, b := vec.FreeAt(at), ref.FreeAt(at); a != b {
					t.Fatalf("seed %d step %d: FreeAt(%d) = %d, scalar %d", seed, step, at, a, b)
				}
				lo := from + r.Int63n(500) - 150
				hi := lo + r.Int63n(300) - 30
				if a, b := vec.MinFree(lo, hi), ref.MinFree(lo, hi); a != b {
					t.Fatalf("seed %d step %d: MinFree = %d, scalar %d", seed, step, a, b)
				}
				if vec.FreeMemAt(at) != 0 || vec.MinFreeMem(lo, hi) != 0 || vec.TotalMem() != 0 {
					t.Fatalf("seed %d step %d: memless profile reports memory", seed, step)
				}
			case 3: // FindStart probe with a memory demand: ignored when off
				procs := r.Intn(total+4) + 1
				dur := r.Int63n(200) - 10
				after := from + r.Int63n(500) - 150
				mem := r.Intn(100)
				if a, b := vec.FindStart(after, dur, procs, mem), ref.FindStart(after, dur, procs); a != b {
					t.Fatalf("seed %d step %d: FindStart = %d, scalar %d", seed, step, a, b)
				}
			case 4:
				if !open {
					vmk, rmk = vec.Checkpoint(), ref.Checkpoint()
					open = true
				}
			case 5:
				if open {
					vec.Rollback(vmk)
					ref.Rollback(rmk)
					open = false
				}
			}
			if len(vec.p.segs) != len(ref.segs) {
				t.Fatalf("seed %d step %d: %d segments, scalar %d", seed, step, len(vec.p.segs), len(ref.segs))
			}
			for i := range ref.segs {
				if vec.p.segs[i] != ref.segs[i] {
					t.Fatalf("seed %d step %d: segment %d = %+v, scalar %+v",
						seed, step, i, vec.p.segs[i], ref.segs[i])
				}
			}
		}
	}
}

// ---- width-2 differential against the oracle ----

// TestVecProfileNaiveDifferential checks the two-dimension profile against
// the oracle's flat two-dimension reservation list: joint FindStart answers,
// reserve feasibility and, after every sequence, both dimensions' free
// functions segment for segment.
func TestVecProfileNaiveDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		r := stats.NewRNG(seed)
		total := []int{2, 16, 64}[r.Intn(3)]
		memTotal := []int{8, 100, 1000}[r.Intn(3)]
		v := NewVecProfile(total, memTotal, 0)
		o := &oracle.Profile{Procs: total, Mem: memTotal}
		for i := 0; i < 50; i++ {
			procs := r.Intn(total) + 1
			mem := r.Intn(memTotal + 1) // 0 = procs-only job
			dur := r.Int63n(120) + 1
			after := r.Int63n(750)
			start := v.FindStart(after, dur, procs, mem)
			if w := o.FindStart(after, dur, procs, mem); w != start {
				t.Fatalf("seed %d op %d: FindStart(%d,%d,%d,%d) = %d, oracle %d",
					seed, i, after, dur, procs, mem, start, w)
			}
			err := v.Reserve(start, start+dur, procs, mem)
			if ok := o.Reserve(start, start+dur, procs, mem); (err == nil) != ok {
				t.Fatalf("seed %d op %d: reserve [%d,%d)x(%d,%d): skyline %v, oracle %v",
					seed, i, start, start+dur, procs, mem, err, ok)
			}
		}
		checkSkyline(t, fmt.Sprintf("seed %d procs", seed), &v.p, o, false)
		checkSkyline(t, fmt.Sprintf("seed %d mem", seed), &v.m, o, true)
	}
}

// ---- targeted unit tests ----

// TestVecProfileNoPartialReserve pins the all-or-nothing contract: a reserve
// that fails on the memory dimension must leave the processor skyline
// untouched (and vice versa), even through the ReserveFound fallbacks.
func TestVecProfileNoPartialReserve(t *testing.T) {
	v := NewVecProfile(10, 100, 0)
	if err := v.Reserve(0, 10, 4, 90); err != nil {
		t.Fatalf("setup reserve: %v", err)
	}
	// procs fit (6 free), mem does not (10 free < 20).
	if err := v.Reserve(0, 10, 6, 20); err == nil {
		t.Fatal("expected memory-capacity error")
	}
	if got := v.FreeAt(5); got != 6 {
		t.Fatalf("procs dimension mutated by failed reserve: free=%d, want 6", got)
	}
	if got := v.FreeMemAt(5); got != 10 {
		t.Fatalf("mem dimension mutated by failed reserve: free=%d, want 10", got)
	}
	// mem fits, procs do not.
	if err := v.Reserve(0, 10, 7, 5); err == nil {
		t.Fatal("expected procs-capacity error")
	}
	if got := v.FreeMemAt(5); got != 10 {
		t.Fatalf("mem dimension mutated by failed procs reserve: free=%d, want 10", got)
	}
}

// TestVecProfileFindStartJoint pins the alternating fixed point on a case
// where neither dimension alone determines the answer: the earliest procs
// window and the earliest mem window are disjoint, and the joint start is
// later than both.
func TestVecProfileFindStartJoint(t *testing.T) {
	v := NewVecProfile(10, 100, 0)
	// Procs busy over [0,50): only 2 free. Mem busy over [50,100): 10 free.
	if err := v.Reserve(0, 50, 8, 1); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if err := v.Reserve(50, 100, 1, 90); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	// 4 procs + 20 mem for 10s: procs admit t>=50, mem then pushes to 100.
	if got := v.FindStart(0, 10, 4, 20); got != 100 {
		t.Fatalf("FindStart = %d, want 100", got)
	}
	// A job that threads the needle: 2 procs + 20 mem fits immediately.
	if got := v.FindStart(0, 10, 2, 20); got != 0 {
		t.Fatalf("FindStart = %d, want 0", got)
	}
	// Memory-only pressure: 4 procs + 95 mem must wait for the mem release.
	if got := v.FindStart(0, 10, 4, 95); got != 100 {
		t.Fatalf("FindStart = %d, want 100", got)
	}
}

// TestVecProfileRollbackBothDims verifies the paired checkpoint restores the
// exact segment lists of both dimensions.
func TestVecProfileRollbackBothDims(t *testing.T) {
	r := stats.NewRNG(11)
	v := NewVecProfile(16, 200, 0)
	if err := v.Reserve(10, 40, 5, 50); err != nil {
		t.Fatalf("setup: %v", err)
	}
	beforeP := append([]segment(nil), v.p.segs...)
	beforeM := append([]segment(nil), v.m.segs...)
	mk := v.Checkpoint()
	for i := 0; i < 30; i++ {
		procs := r.Intn(16) + 1
		mem := r.Intn(120)
		dur := r.Int63n(60) + 1
		s := v.FindStart(r.Int63n(100), dur, procs, mem)
		_ = v.ReserveFound(s, s+dur, procs, mem)
	}
	v.Rollback(mk)
	if len(v.p.segs) != len(beforeP) || len(v.m.segs) != len(beforeM) {
		t.Fatalf("rollback changed segment counts: procs %d->%d, mem %d->%d",
			len(beforeP), len(v.p.segs), len(beforeM), len(v.m.segs))
	}
	for i := range beforeP {
		if v.p.segs[i] != beforeP[i] {
			t.Fatalf("procs segment %d = %+v, want %+v", i, v.p.segs[i], beforeP[i])
		}
	}
	for i := range beforeM {
		if v.m.segs[i] != beforeM[i] {
			t.Fatalf("mem segment %d = %+v, want %+v", i, v.m.segs[i], beforeM[i])
		}
	}
}

// TestVecProfileResetSpans checks the bulk build: memless spans appear only
// in the procs skyline, and both free functions reflect the span set.
func TestVecProfileResetSpans(t *testing.T) {
	var v VecProfile
	spans := []Span{
		{End: 100, Procs: 4, Mem: 30},
		{End: 50, Procs: 2},           // procs-only job
		{End: 200, Procs: 1, Mem: 60}, // mem-heavy job
	}
	v.ResetSpans(8, 100, 0, spans)
	if got := v.FreeAt(0); got != 1 {
		t.Fatalf("FreeAt(0) = %d, want 1", got)
	}
	if got := v.FreeMemAt(0); got != 10 {
		t.Fatalf("FreeMemAt(0) = %d, want 10", got)
	}
	if got := v.FreeAt(60); got != 3 {
		t.Fatalf("FreeAt(60) = %d, want 3", got)
	}
	if got := v.FreeAt(150); got != 7 {
		t.Fatalf("FreeAt(150) = %d, want 7", got)
	}
	if got := v.FreeMemAt(150); got != 40 {
		t.Fatalf("FreeMemAt(150) = %d, want 40", got)
	}
	if got := v.FreeMemAt(250); got != 100 {
		t.Fatalf("FreeMemAt(250) = %d, want 100", got)
	}
	// Rebuild without memory: the dimension switches off cleanly. (A fresh
	// span list — ResetSpans reordered the first one in place.)
	v.ResetSpans(8, 0, 0, []Span{{End: 100, Procs: 4, Mem: 30}})
	if v.HasMem() || v.TotalMem() != 0 || v.FreeMemAt(0) != 0 {
		t.Fatal("memless rebuild left the memory dimension on")
	}
	if got := v.FreeAt(0); got != 4 {
		t.Fatalf("FreeAt(0) after rebuild = %d, want 4", got)
	}
}
