package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample must read 0")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// The expected values are statistics.quantiles(values, n=4) from CPython.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("10 values: got %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 20, 50, 30, 40})
	if q1 != 15 || q2 != 30 || q3 != 45 {
		t.Errorf("5 values: got %v %v %v, want 15 30 45", q1, q2, q3)
	}
	if got := spread([]float64{10, 20, 50, 30, 40}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestWorseningFollowsDirection(t *testing.T) {
	if w := worsening(100, 110, "lower"); math.Abs(w-0.10) > 1e-12 {
		t.Errorf("lower-better +10%%: %v", w)
	}
	if w := worsening(100, 110, "higher"); math.Abs(w+0.10) > 1e-12 {
		t.Errorf("higher-better +10%%: %v", w)
	}
	if w := worsening(100, 90, "higher"); math.Abs(w-0.10) > 1e-12 {
		t.Errorf("higher-better -10%%: %v", w)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		new    []float64
		better string
		bound  float64
		want   string
	}{
		{"within bound", []float64{103, 104, 103, 102, 103}, "lower", 0.05, "ok"},
		{"past bound", []float64{108, 107, 109, 108, 108}, "lower", 0.05, "regression"},
		{"improvement", []float64{80, 81, 80, 79, 80}, "lower", 0.05, "ok"},
		{"higher is better, drop", []float64{90, 91, 90, 89, 90}, "higher", 0.05, "regression"},
	} {
		if got := verdict(steady, c.new, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{100, 140, 80, 120, 60}
	if got := verdict(noisy, []float64{130, 131, 129, 130, 130}, "lower", 0.05); got != "unresolved" {
		t.Errorf("noisy parent: %s, want unresolved", got)
	}
	if got := verdict(steady, noisy, "lower", 0.05); got != "unresolved" {
		t.Errorf("noisy change: %s, want unresolved", got)
	}
	if got := verdict(noisy, []float64{50, 51, 49, 50, 50}, "lower", 0.05); got != "ok" {
		t.Errorf("noisy parent, every new run better: %s, want ok", got)
	}
}

// Two units of one part, laps as cumulative times: each lap counts at the
// faster of its two repetitions, wherever in the unit the slow ones fell.
func TestPartCostIsSumOfFastestLaps(t *testing.T) {
	var p replayPart
	p.fold([]time.Duration{10, 50, 60}) // laps 10, 40, 10: a hit in the second
	p.fold([]time.Duration{30, 40, 50}) // laps 30, 10, 10: a hit in the first
	if got := p.cost(); got != 30 {
		t.Errorf("cost = %d, want 10+10+10", got)
	}
}

func TestWorkloadBoundOnlyTightens(t *testing.T) {
	sp := &spec{}
	m := metricDef{Name: "wait_ms", Bound: 0.25}
	workloadBounds["w-tight"] = map[string]float64{"wait_ms": 0.07}
	workloadBounds["w-loose"] = map[string]float64{"wait_ms": 0.40}
	defer delete(workloadBounds, "w-tight")
	defer delete(workloadBounds, "w-loose")
	if b := sp.bound("w-tight", m); b != 0.07 {
		t.Errorf("tighter entry: %v, want 0.07", b)
	}
	if b := sp.bound("w-loose", m); b != 0.25 {
		t.Errorf("looser entry must not widen the metric's bound: %v", b)
	}
	if b := sp.bound("other", m); b != 0.25 {
		t.Errorf("no entry: %v, want the metric's bound", b)
	}
}
