package trace

import (
	"strconv"
	"testing"
	"unsafe"
)

// TestJobLayout pins Job at 80 bytes on 64-bit platforms: the seven
// scheduling fields fill the first 56 bytes and the six int32 identity
// fields the remaining 24, with no padding.
func TestJobLayout(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skipf("layout pinned for 64-bit int, have %d-bit", strconv.IntSize)
	}
	var j Job
	if got := unsafe.Sizeof(j); got != 80 {
		t.Fatalf("unsafe.Sizeof(Job{}) = %d, want 80", got)
	}
	sched := []struct {
		name      string
		off, size uintptr
	}{
		{"ID", unsafe.Offsetof(j.ID), unsafe.Sizeof(j.ID)},
		{"Submit", unsafe.Offsetof(j.Submit), unsafe.Sizeof(j.Submit)},
		{"Runtime", unsafe.Offsetof(j.Runtime), unsafe.Sizeof(j.Runtime)},
		{"Request", unsafe.Offsetof(j.Request), unsafe.Sizeof(j.Request)},
		{"Procs", unsafe.Offsetof(j.Procs), unsafe.Sizeof(j.Procs)},
		{"Mem", unsafe.Offsetof(j.Mem), unsafe.Sizeof(j.Mem)},
		{"Priority", unsafe.Offsetof(j.Priority), unsafe.Sizeof(j.Priority)},
	}
	for _, f := range sched {
		if f.off+f.size > 56 {
			t.Errorf("scheduling field %s at bytes [%d,%d), want inside the first 56", f.name, f.off, f.off+f.size)
		}
	}
	if off := unsafe.Offsetof(j.User); off != 56 {
		t.Errorf("User at offset %d, want 56 (first identity field right after the scheduling fields)", off)
	}
}

// TestCloneAndSliceAllocs pins both copies at one job slab per call: the
// Trace header, the slab and the pointer slice, whatever the length.
func TestCloneAndSliceAllocs(t *testing.T) {
	for _, n := range []int{0, 1, 100, 10000} {
		tr := SyntheticSDSCSP2(n, 1)
		if got := testing.AllocsPerRun(10, func() { tr.Clone() }); got > 3 {
			t.Errorf("Clone of %d jobs: %.0f allocations, want <= 3", n, got)
		}
		if got := testing.AllocsPerRun(10, func() { Slice(tr, n/4, n/2) }); got > 3 {
			t.Errorf("Slice of %d jobs: %.0f allocations, want <= 3", n/2, got)
		}
	}
}
