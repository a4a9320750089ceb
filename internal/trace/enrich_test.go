package trace

import (
	"bytes"
	"testing"
)

func enrichFixture() *Trace {
	return SyntheticSDSCSP2(200, 42)
}

func TestEnrichDeterministic(t *testing.T) {
	spec := EnrichSpec{MemDist: MemDistProp, PriorityTiers: 3, Seed: 9}
	a, err := Enrich(enrichFixture(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Enrich(enrichFixture(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mem != b.Mem || a.Name != b.Name || a.Len() != b.Len() {
		t.Fatalf("header mismatch: %v/%v/%d vs %v/%v/%d", a.Mem, a.Name, a.Len(), b.Mem, b.Name, b.Len())
	}
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if ja.Mem != jb.Mem || ja.Priority != jb.Priority {
			t.Fatalf("job %d: (%d,%d) vs (%d,%d)", ja.ID, ja.Mem, ja.Priority, jb.Mem, jb.Priority)
		}
	}
}

func TestEnrichBoundsAndValidity(t *testing.T) {
	base := enrichFixture()
	tiers := 4
	tr, err := Enrich(base, EnrichSpec{MemDist: MemDistProp, PriorityTiers: tiers, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != base.Name+"+sc" {
		t.Fatalf("name = %q, want %q", tr.Name, base.Name+"+sc")
	}
	if want := tr.Procs * DefaultMemPerProc; tr.Mem != want {
		t.Fatalf("capacity = %d, want %d", tr.Mem, want)
	}
	seenTier := make(map[int32]bool)
	for _, j := range tr.Jobs {
		if j.Mem < 1 || j.Mem > tr.Mem {
			t.Fatalf("job %d mem %d outside [1,%d]", j.ID, j.Mem, tr.Mem)
		}
		if j.Priority < 0 || j.Priority >= int32(tiers) {
			t.Fatalf("job %d priority %d outside [0,%d)", j.ID, j.Priority, tiers)
		}
		seenTier[j.Priority] = true
	}
	if len(seenTier) < 2 {
		t.Fatalf("only %d tiers drawn across %d jobs; want a spread", len(seenTier), tr.Len())
	}
	// An enriched trace must still pass full validation (the simulator
	// rejects invalid ones outright).
	if err := tr.Validate(); err != nil {
		t.Fatalf("enriched trace invalid: %v", err)
	}
	// The base trace must be untouched (Enrich clones).
	for _, j := range base.Jobs {
		if j.Mem != 0 || j.Priority != 0 {
			t.Fatalf("base trace mutated: job %d mem=%d pri=%d", j.ID, j.Mem, j.Priority)
		}
	}
}

func TestEnrichDisabledIsNoOp(t *testing.T) {
	base := enrichFixture()
	for _, spec := range []EnrichSpec{{}, {MemDist: MemDistNone}, {PriorityTiers: 1}} {
		if spec.Enabled() {
			t.Fatalf("spec %+v should be disabled", spec)
		}
		tr, err := Enrich(base, spec)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Name != base.Name || tr.Mem != 0 {
			t.Fatalf("disabled spec changed trace: name %q mem %d", tr.Name, tr.Mem)
		}
	}
}

func TestEnrichRejectsUnknownDist(t *testing.T) {
	if _, err := Enrich(enrichFixture(), EnrichSpec{MemDist: "zipf"}); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

// TestEnrichSWFRoundTrip writes an enriched trace to SWF and parses it back:
// priorities ride the queue column exactly; memory is stored per processor
// with ceil rounding, so each job's total comes back within procs-1 units
// (and never above the machine capacity).
func TestEnrichSWFRoundTrip(t *testing.T) {
	tr, err := Enrich(enrichFixture(), EnrichSpec{MemDist: MemDistUniform, PriorityTiers: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSWF(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSWF(&buf, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	if back.Mem != tr.Mem {
		t.Fatalf("capacity: wrote %d, parsed %d", tr.Mem, back.Mem)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("jobs: wrote %d, parsed %d", tr.Len(), back.Len())
	}
	for i, j := range tr.Jobs {
		g := back.Jobs[i]
		if g.Priority != j.Priority {
			t.Fatalf("job %d priority: wrote %d, parsed %d", j.ID, j.Priority, g.Priority)
		}
		if g.Mem < j.Mem || g.Mem > j.Mem+j.Procs-1 {
			if g.Mem != tr.Mem { // capacity clamp is the one legal exception
				t.Fatalf("job %d mem: wrote %d (procs %d), parsed %d", j.ID, j.Mem, j.Procs, g.Mem)
			}
		}
		if g.Mem > back.Mem {
			t.Fatalf("job %d mem %d > capacity %d after round trip", j.ID, g.Mem, back.Mem)
		}
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped trace invalid: %v", err)
	}
}
