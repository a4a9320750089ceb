package sched

import (
	"math"
	"testing"
)

func TestF2Formula(t *testing.T) {
	j := job(1, 100, 400, 4)
	want := math.Sqrt(400)*4 + 25600*math.Log10(100)
	if got := (F2{}).Score(j, 0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("F2 = %v, want %v", got, want)
	}
}

func TestF3Formula(t *testing.T) {
	j := job(1, 100, 400, 4)
	want := 400.0*4 + 6860000*math.Log10(100)
	if got := (F3{}).Score(j, 0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("F3 = %v, want %v", got, want)
	}
}

func TestF4Formula(t *testing.T) {
	j := job(1, 100, 400, 4)
	want := 400*math.Sqrt(4) + 530000*math.Log10(100)
	if got := (F4{}).Score(j, 0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("F4 = %v, want %v", got, want)
	}
}

func TestSAFOrdersByArea(t *testing.T) {
	small := job(1, 0, 100, 2) // area 200
	big := job(2, 0, 50, 100)  // area 5000
	if (SAF{}).Score(small, 0) >= (SAF{}).Score(big, 0) {
		t.Fatal("SAF must prefer the smaller-area job")
	}
}

func TestFFamilyHandlesZeroSubmit(t *testing.T) {
	j := job(1, 0, 100, 4)
	for _, p := range []Policy{F2{}, F3{}, F4{}} {
		if v := p.Score(j, 0); math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("%s score at submit=0 is %v", p.Name(), v)
		}
	}
}

func TestExtendedContainsAll(t *testing.T) {
	ext := Extended()
	if len(ext) != 8 {
		t.Fatalf("Extended has %d policies, want 8", len(ext))
	}
	seen := map[string]bool{}
	for _, p := range ext {
		seen[p.Name()] = true
	}
	for _, want := range []string{"FCFS", "SJF", "WFP3", "F1", "F2", "F3", "F4", "SAF"} {
		if !seen[want] {
			t.Fatalf("Extended missing %s", want)
		}
	}
}

func TestByNameExtended(t *testing.T) {
	for _, name := range []string{"FCFS", "SJF", "WFP3", "F1", "F2", "F3", "F4", "SAF"} {
		p, err := ByNameExtended(name)
		if err != nil || p.Name() != name {
			t.Fatalf("ByNameExtended(%q) -> %v, %v", name, p, err)
		}
	}
	if _, err := ByNameExtended("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestByNameExtendedErrorListsEveryPolicy checks the error for an unknown
// name lists all eight policies the lookup accepts.
func TestByNameExtendedErrorListsEveryPolicy(t *testing.T) {
	_, err := ByNameExtended("sjf")
	want := `sched: unknown policy "sjf" (want FCFS, SJF, WFP3, F1, F2, F3, F4 or SAF)`
	if err == nil || err.Error() != want {
		t.Fatalf("ByNameExtended(\"sjf\") error %v, want %s", err, want)
	}
}
