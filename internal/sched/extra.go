package sched

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/trace"
)

// The paper's Table 3 lists FCFS, SJF, WFP3 and F1. The F-family of learned
// priority functions from Carastan-Santos & de Camargo (SC'17) has three
// more members (F2-F4) that the RLScheduler line of work — which the paper
// builds on — also evaluates; they are provided here for completeness, along
// with SAF, the classic smallest-area heuristic. All follow the same
// convention: lower score runs first.

// F2 is score(t) = sqrt(r_t)*n_t + 25600*log10(s_t).
type F2 struct{}

// Name implements Policy.
func (F2) Name() string { return "F2" }

// Score implements Policy.
func (F2) Score(j *trace.Job, _ int64) float64 {
	rt := math.Max(float64(j.Request), 1)
	st := math.Max(float64(j.Submit), 1)
	return math.Sqrt(rt)*float64(j.Procs) + 25600*math.Log10(st)
}

// TimeVarying implements Policy.
func (F2) TimeVarying() bool { return false }

// F3 is score(t) = r_t*n_t + 6860000*log10(s_t).
type F3 struct{}

// Name implements Policy.
func (F3) Name() string { return "F3" }

// Score implements Policy.
func (F3) Score(j *trace.Job, _ int64) float64 {
	rt := math.Max(float64(j.Request), 1)
	st := math.Max(float64(j.Submit), 1)
	return rt*float64(j.Procs) + 6860000*math.Log10(st)
}

// TimeVarying implements Policy.
func (F3) TimeVarying() bool { return false }

// F4 is score(t) = r_t*sqrt(n_t) + 530000*log10(s_t).
type F4 struct{}

// Name implements Policy.
func (F4) Name() string { return "F4" }

// Score implements Policy.
func (F4) Score(j *trace.Job, _ int64) float64 {
	rt := math.Max(float64(j.Request), 1)
	st := math.Max(float64(j.Submit), 1)
	return rt*math.Sqrt(float64(j.Procs)) + 530000*math.Log10(st)
}

// TimeVarying implements Policy.
func (F4) TimeVarying() bool { return false }

// SAF (smallest area first) prioritises jobs by requested runtime x
// processors — the resource "area" the job will occupy.
type SAF struct{}

// Name implements Policy.
func (SAF) Name() string { return "SAF" }

// Score implements Policy.
func (SAF) Score(j *trace.Job, _ int64) float64 {
	return float64(j.Request) * float64(j.Procs)
}

// TimeVarying implements Policy.
func (SAF) TimeVarying() bool { return false }

// Extended returns every implemented policy: Table 3's four plus the
// F-family completions and SAF.
func Extended() []Policy {
	return append(All(), F2{}, F3{}, F4{}, SAF{})
}

// ByNameExtended resolves any implemented policy, including the non-Table 3
// extras.
func ByNameExtended(name string) (Policy, error) {
	ext := Extended()
	names := make([]string, len(ext))
	for i, p := range ext {
		if p.Name() == name {
			return p, nil
		}
		names[i] = p.Name()
	}
	last := len(names) - 1
	return nil, fmt.Errorf("sched: unknown policy %q (want %s or %s)", name, strings.Join(names[:last], ", "), names[last])
}
