package backfill

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Estimator predicts a job's runtime for backfilling decisions. The paper's
// central observation (§1, Figures 1-2) is that the choice of estimator
// trades the head job's reservation tightness against backfilling
// opportunity, and that higher accuracy does not imply better schedules.
//
// Contract: Estimate is a pure function of the job — the same estimator
// value returns the same number for the same job every time, with no side
// effects — and an estimator is not mutated while a backfiller holds it (to
// change predictions, pass another value). The reservation index relies on
// it: a running job's estimated end is computed once, when the job is first
// seen running. Values of comparable types (all the ones here) let the index
// notice a swap with ==; one holding a slice, map or func still works, but
// re-sorts the running set on every reservation.
type Estimator interface {
	Name() string
	// Estimate returns the predicted runtime in seconds (always >= 1).
	Estimate(j *trace.Job) int64
}

// RequestTime estimates with the user-provided wall time (plain EASY).
type RequestTime struct{}

// Name implements Estimator.
func (RequestTime) Name() string { return "RT" }

// Estimate implements Estimator.
func (RequestTime) Estimate(j *trace.Job) int64 { return maxI64(j.Request, 1) }

// ActualRuntime estimates with the job's true runtime — the "ideal
// prediction" the paper's EASY-AR baseline uses.
type ActualRuntime struct{}

// Name implements Estimator.
func (ActualRuntime) Name() string { return "AR" }

// Estimate implements Estimator.
func (ActualRuntime) Estimate(j *trace.Job) int64 { return maxI64(j.Runtime, 1) }

// Noisy perturbs the actual runtime with a per-job multiplicative
// overestimate: estimate = AR * (1 + U(0, Level)). A Level of 0.2 is the
// paper's "+20%" point in Figure 1. Estimates are fixed per job (sampled
// once, deterministically from Seed and the job ID) so the same job is
// always predicted consistently within a simulation.
type Noisy struct {
	Level float64
	Seed  uint64
}

// Name implements Estimator.
func (n Noisy) Name() string { return fmt.Sprintf("AR+%.0f%%", n.Level*100) }

// Estimate implements Estimator.
func (n Noisy) Estimate(j *trace.Job) int64 {
	if n.Level <= 0 {
		return maxI64(j.Runtime, 1)
	}
	// A per-job RNG keyed by (Seed, ID) gives a fixed, reproducible
	// perturbation without maintaining a map.
	r := stats.NewRNG(n.Seed ^ (uint64(j.ID)*0x9e3779b97f4a7c15 + 0x1234567))
	f := 1 + r.Float64()*n.Level
	est := int64(float64(maxI64(j.Runtime, 1)) * f)
	return maxI64(est, 1)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
