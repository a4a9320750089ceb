package cluster

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestNewPanicsOnBadSize(t *testing.T) {
	for _, c := range []struct{ n, mem int }{{0, 0}, {-1, 0}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewWithMem(%d, %d) did not panic", c.n, c.mem)
				}
			}()
			NewWithMem(c.n, c.mem)
		}()
	}
}

func TestAllocRelease(t *testing.T) {
	c := New(10)
	if err := c.Alloc(4, 0); err != nil {
		t.Fatal(err)
	}
	if c.Free() != 6 || c.Used() != 4 {
		t.Fatalf("state after alloc: free=%d used=%d", c.Free(), c.Used())
	}
	c.Release(4, 0)
	if c.Free() != 10 || c.Used() != 0 {
		t.Fatalf("state after release: free=%d used=%d", c.Free(), c.Used())
	}
	// With the memory dimension on both resources are charged; with it off
	// memory is ignored and FreeMem stays 0.
	m := NewWithMem(10, 100)
	if err := m.Alloc(3, 40); err != nil {
		t.Fatal(err)
	}
	if m.Free() != 7 || m.FreeMem() != 60 {
		t.Fatalf("state after alloc: free=%d mem=%d", m.Free(), m.FreeMem())
	}
	m.Release(3, 40)
	if m.Free() != 10 || m.FreeMem() != 100 {
		t.Fatalf("state after release: free=%d mem=%d", m.Free(), m.FreeMem())
	}
	if err := c.Alloc(2, 1000); err != nil || c.FreeMem() != 0 {
		t.Fatalf("memless alloc: err=%v mem=%d", err, c.FreeMem())
	}
}

// A cluster counts resources, not jobs: a job ID held twice is refused at
// admission (sim's TestInjectRejectsHeldID, TestRestoreRejectsRepeatedIDsAndOvercommit
// and trace's TestTraceValidateRejectsRepeatedIDs), not here.
func TestAllocErrors(t *testing.T) {
	c := NewWithMem(10, 20)
	if err := c.Alloc(0, 0); err == nil {
		t.Fatal("zero-proc alloc accepted")
	}
	if err := c.Alloc(11, 0); err == nil {
		t.Fatal("oversubscription accepted")
	}
	if err := c.Alloc(1, 21); err == nil {
		t.Fatal("memory oversubscription accepted")
	}
	if err := c.Alloc(5, 15); err != nil {
		t.Fatal(err)
	}
	if err := c.Alloc(6, 0); err == nil {
		t.Fatal("alloc beyond free procs accepted")
	}
	if err := c.Alloc(1, 6); err == nil {
		t.Fatal("alloc beyond free mem accepted")
	}
	if c.Free() != 5 || c.FreeMem() != 5 {
		t.Fatalf("refused allocs changed the cluster: free=%d mem=%d", c.Free(), c.FreeMem())
	}
	for _, r := range []struct{ procs, mem int }{{6, 0}, {1, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("release of %d procs and %d mem beyond what is held accepted", r.procs, r.mem)
				}
			}()
			NewWithMem(10, 20).Release(r.procs, r.mem)
		}()
	}
}

func TestFits(t *testing.T) {
	c := New(8)
	if !c.Fits(8) || c.Fits(9) || c.Fits(0) {
		t.Fatal("Fits boundary conditions wrong")
	}
	m := NewWithMem(8, 4)
	if !m.FitsRes(8, 4) || m.FitsRes(8, 5) || m.FitsRes(9, 0) || !c.FitsRes(8, 1000) {
		t.Fatal("FitsRes boundary conditions wrong")
	}
}

// Property: any random alloc/release sequence keeps 0 <= free <= total and
// free + sum(held) == total.
func TestClusterInvariants(t *testing.T) {
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed))
		c := New(64)
		held := map[int]int{}
		for step := 0; step < 200; step++ {
			if r.Bool(0.6) {
				id := r.Intn(100)
				if _, dup := held[id]; dup {
					continue // IDs are unique at admission, above the cluster
				}
				procs := r.Intn(70) + 1
				fits := procs <= c.Free()
				err := c.Alloc(procs, 0)
				if (err == nil) != fits {
					return false // refused a fitting job or took one that does not fit
				}
				if err == nil {
					held[id] = procs
				}
			} else if len(held) > 0 {
				// release a random held job
				for id, procs := range held {
					c.Release(procs, 0)
					delete(held, id)
					break
				}
			}
			sum := 0
			for _, p := range held {
				sum += p
			}
			if c.Free() < 0 || c.Free() > 64 || c.Free()+sum != 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileBasics(t *testing.T) {
	p := NewProfile(10, 0)
	if p.FreeAt(0) != 10 || p.FreeAt(1e9) != 10 {
		t.Fatal("fresh profile not fully free")
	}
	if err := p.Reserve(10, 20, 4); err != nil {
		t.Fatal(err)
	}
	if p.FreeAt(5) != 10 || p.FreeAt(10) != 6 || p.FreeAt(19) != 6 || p.FreeAt(20) != 10 {
		t.Fatalf("free profile wrong: %d %d %d %d", p.FreeAt(5), p.FreeAt(10), p.FreeAt(19), p.FreeAt(20))
	}
}

func TestProfileOverlappingReservations(t *testing.T) {
	p := NewProfile(10, 0)
	if err := p.Reserve(0, 100, 6); err != nil {
		t.Fatal(err)
	}
	if err := p.Reserve(50, 150, 4); err != nil {
		t.Fatal(err)
	}
	if p.FreeAt(75) != 0 {
		t.Fatalf("FreeAt(75) = %d, want 0", p.FreeAt(75))
	}
	if err := p.Reserve(60, 70, 1); err == nil {
		t.Fatal("over-capacity reservation accepted")
	}
	if p.FreeAt(75) != 0 {
		t.Fatal("failed reservation mutated profile")
	}
}

func TestProfileReserveErrors(t *testing.T) {
	p := NewProfile(4, 0)
	if err := p.Reserve(10, 10, 1); err == nil {
		t.Fatal("empty window accepted")
	}
	if err := p.Reserve(0, 10, 0); err == nil {
		t.Fatal("zero procs accepted")
	}
	if err := p.Reserve(0, 10, 5); err == nil {
		t.Fatal("beyond capacity accepted")
	}
}

func TestProfileFindStart(t *testing.T) {
	p := NewProfile(10, 0)
	_ = p.Reserve(0, 100, 8) // only 2 free until t=100
	if got := p.FindStart(0, 50, 2); got != 0 {
		t.Fatalf("FindStart small job = %d, want 0", got)
	}
	if got := p.FindStart(0, 50, 5); got != 100 {
		t.Fatalf("FindStart big job = %d, want 100", got)
	}
	if got := p.FindStart(150, 50, 5); got != 150 {
		t.Fatalf("FindStart after reservations = %d, want 150", got)
	}
}

func TestProfileFindStartBetweenReservations(t *testing.T) {
	p := NewProfile(10, 0)
	_ = p.Reserve(0, 50, 10)
	_ = p.Reserve(100, 200, 10)
	// a 40s 10-proc job fits exactly in the [50,100) hole
	if got := p.FindStart(0, 40, 10); got != 50 {
		t.Fatalf("FindStart = %d, want 50", got)
	}
	// a 60s job does not fit in the hole; must wait until 200
	if got := p.FindStart(0, 60, 10); got != 200 {
		t.Fatalf("FindStart = %d, want 200", got)
	}
}

func TestProfileMinFree(t *testing.T) {
	p := NewProfile(8, 0)
	_ = p.Reserve(10, 20, 3)
	_ = p.Reserve(15, 30, 2)
	if got := p.MinFree(0, 10); got != 8 {
		t.Fatalf("MinFree(0,10) = %d", got)
	}
	if got := p.MinFree(0, 16); got != 3 {
		t.Fatalf("MinFree(0,16) = %d", got)
	}
	if got := p.MinFree(20, 40); got != 6 {
		t.Fatalf("MinFree(20,40) = %d", got)
	}
}

// Property: after any sequence of reservations found via FindStart, the
// profile never goes negative anywhere.
func TestProfileNeverNegative(t *testing.T) {
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed))
		p := NewProfile(32, 0)
		for i := 0; i < 50; i++ {
			procs := r.Intn(32) + 1
			dur := r.Int63n(500) + 1
			start := p.FindStart(r.Int63n(1000), dur, procs)
			if err := p.Reserve(start, start+dur, procs); err != nil {
				return false
			}
		}
		// scan a fine grid
		for tm := int64(0); tm < 3000; tm += 7 {
			if p.FreeAt(tm) < 0 || p.FreeAt(tm) > 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
