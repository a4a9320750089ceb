package trace

import (
	"math"
	"strings"
	"testing"
)

func TestAnalyzeBasics(t *testing.T) {
	tr := SyntheticSDSCSP2(3000, 5)
	a := Analyze(tr)
	if a.Stats.Jobs != 3000 {
		t.Fatalf("jobs = %d", a.Stats.Jobs)
	}
	if a.Runtime.Mean <= 0 || a.Request.Mean < a.Runtime.Mean {
		t.Fatalf("runtime/request means inconsistent: %v vs %v", a.Runtime.Mean, a.Request.Mean)
	}
	if a.SerialF <= 0 || a.SerialF >= 1 {
		t.Fatalf("serial fraction %v implausible", a.SerialF)
	}
	if a.Pow2F < a.SerialF {
		t.Fatal("power-of-two fraction must include serial jobs")
	}
	if a.Users <= 1 {
		t.Fatalf("users = %d", a.Users)
	}
	if a.OfferedLoad <= 0 || a.OfferedLoad > 1.5 {
		t.Fatalf("offered load %v implausible", a.OfferedLoad)
	}
	// the surrogate arrivals are much burstier than Poisson
	if a.BurstinessCV < 1.1 {
		t.Fatalf("burstiness CV %v; surrogate should exceed Poisson (1.0)", a.BurstinessCV)
	}
	var hourSum float64
	for _, h := range a.HourlyArrivals {
		hourSum += h
	}
	if math.Abs(hourSum-1) > 1e-9 {
		t.Fatalf("hourly fractions sum to %v", hourSum)
	}
	s := a.String()
	for _, want := range []string{"runtime", "arrivals", "users", "load"} {
		if !strings.Contains(s, want) {
			t.Fatalf("analysis report missing %q", want)
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(&Trace{Name: "e", Procs: 4})
	if a.Stats.Jobs != 0 || a.OfferedLoad != 0 {
		t.Fatalf("empty analysis: %+v", a.Stats)
	}
}

func TestScaleLoadCompressesArrivals(t *testing.T) {
	tr := SyntheticSDSCSP2(500, 9)
	twice := ScaleLoad(tr, 2)
	orig := ComputeStats(tr).MeanInterarrival
	scaled := ComputeStats(twice).MeanInterarrival
	if math.Abs(scaled-orig/2) > orig*0.02 {
		t.Fatalf("scaled interarrival %v, want ~%v", scaled, orig/2)
	}
	// shapes untouched
	for i := range tr.Jobs {
		if twice.Jobs[i].Runtime != tr.Jobs[i].Runtime || twice.Jobs[i].Procs != tr.Jobs[i].Procs {
			t.Fatal("ScaleLoad changed job shapes")
		}
	}
	if err := twice.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScaleLoadPanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScaleLoad(0) did not panic")
		}
	}()
	ScaleLoad(SyntheticSDSCSP2(10, 1), 0)
}
