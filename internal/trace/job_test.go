package trace

import (
	"strconv"
	"testing"
	"unsafe"
)

// TestJobLayout pins Job at 56 bytes on 64-bit platforms: the seven
// scheduling fields and User at fixed offsets, with Priority and User
// sharing the last 8 bytes and no padding anywhere.
func TestJobLayout(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skipf("layout pinned for 64-bit int, have %d-bit", strconv.IntSize)
	}
	var j Job
	if got := unsafe.Sizeof(j); got != 56 {
		t.Fatalf("unsafe.Sizeof(Job{}) = %d, want 56", got)
	}
	fields := []struct {
		name            string
		off, size       uintptr
		wantOff, wantSz uintptr
	}{
		{"ID", unsafe.Offsetof(j.ID), unsafe.Sizeof(j.ID), 0, 8},
		{"Submit", unsafe.Offsetof(j.Submit), unsafe.Sizeof(j.Submit), 8, 8},
		{"Runtime", unsafe.Offsetof(j.Runtime), unsafe.Sizeof(j.Runtime), 16, 8},
		{"Request", unsafe.Offsetof(j.Request), unsafe.Sizeof(j.Request), 24, 8},
		{"Procs", unsafe.Offsetof(j.Procs), unsafe.Sizeof(j.Procs), 32, 8},
		{"Mem", unsafe.Offsetof(j.Mem), unsafe.Sizeof(j.Mem), 40, 8},
		{"Priority", unsafe.Offsetof(j.Priority), unsafe.Sizeof(j.Priority), 48, 4},
		{"User", unsafe.Offsetof(j.User), unsafe.Sizeof(j.User), 52, 4},
	}
	for _, f := range fields {
		if f.off != f.wantOff || f.size != f.wantSz {
			t.Errorf("%s at offset %d size %d, want offset %d size %d", f.name, f.off, f.size, f.wantOff, f.wantSz)
		}
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
