package repro

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestFigure1TinySmoke regenerates Figure 1 at tiny scale in the tier-1 test
// run, through the same entry point `rlbf-exp -exp fig1` drives.
func TestFigure1TinySmoke(t *testing.T) {
	sc, ok := experiments.ByName("tiny")
	if !ok {
		t.Fatal("tiny scale missing")
	}
	tbl, err := experiments.Figure1(sc)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "Figure 1") {
		t.Fatalf("unexpected table title:\n%s", out)
	}
	// One row per Table 3 policy, each with a bsld value per estimator.
	for _, policy := range []string{"FCFS", "SJF", "WFP3", "F1"} {
		if !strings.Contains(out, policy) {
			t.Fatalf("Figure 1 output missing %s row:\n%s", policy, out)
		}
	}
}

// TestBenchScaleSelection pins the scales `rlbf-exp -scale` selects: every
// documented scale resolves to itself, and an unknown name is refused.
func TestBenchScaleSelection(t *testing.T) {
	for _, name := range []string{"tiny", "quick", "paper"} {
		sc, ok := experiments.ByName(name)
		if !ok {
			t.Fatalf("scale %q not resolvable", name)
		}
		if sc.Name != name {
			t.Fatalf("scale %q resolves to %q", name, sc.Name)
		}
	}
	if _, ok := experiments.ByName("bogus"); ok {
		t.Fatal("unknown scale accepted")
	}
}
