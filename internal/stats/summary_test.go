package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", m)
	}
	// sample std with n-1 denominator: variance = 32/7
	want := math.Sqrt(32.0 / 7.0)
	if s := Std(xs); !almostEq(s, want, 1e-12) {
		t.Fatalf("Std = %v, want %v", s, want)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty-slice statistics should be zero")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be zero")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-12) {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{10, 20}
	if got := Percentile(xs, 50); !almostEq(got, 15, 1e-12) {
		t.Fatalf("Percentile(50) = %v, want 15", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{5, 1, 3}
	s := Summarize(xs)
	if s.N != 3 || s.Min != 1 || s.Max != 5 || !almostEq(s.Mean, 3, 1e-12) || !almostEq(s.Median, 3, 1e-12) {
		t.Fatalf("unexpected summary %+v", s)
	}
}

func TestSummarizeOrderInvariant(t *testing.T) {
	r := NewRNG(77)
	f := func(n uint8) bool {
		m := int(n%20) + 2
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = r.Normal(0, 10)
		}
		a := Summarize(xs)
		perm := r.Perm(m)
		ys := make([]float64, m)
		for i, j := range perm {
			ys[i] = xs[j]
		}
		b := Summarize(ys)
		return almostEq(a.Mean, b.Mean, 1e-9) && almostEq(a.Median, b.Median, 1e-9) &&
			a.Min == b.Min && a.Max == b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p.
func TestPercentileMonotone(t *testing.T) {
	r := NewRNG(123)
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 2.5 {
		v := Percentile(xs, p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}
