package trace

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Memory-distribution names accepted by EnrichSpec.MemDist / tracegen's
// -mem-dist flag.
const (
	MemDistNone    = "none"
	MemDistProp    = "prop"    // proportional to procs with lognormal noise
	MemDistUniform = "uniform" // uniform fraction of the machine
)

// DefaultMemPerProc is the machine memory per processor, in the same
// abstract units as Job.Mem, used when an enrichment spec does not override
// it. 4096 reads naturally as "4 GB per core in MB units" but nothing
// downstream depends on the unit.
const DefaultMemPerProc = 4096

// EnrichSpec parameterises the scenario enrichment transform that upgrades a
// classic procs-only trace into a multi-resource, priority-tiered one. The
// zero value is a no-op (memory off, priorities off).
type EnrichSpec struct {
	// MemDist selects the per-job memory model; see the MemDist* constants.
	// "" is equivalent to MemDistNone.
	MemDist string
	// MemPerProc sets the machine capacity to Procs*MemPerProc units;
	// DefaultMemPerProc when zero.
	MemPerProc int
	// PriorityTiers is the number of priority tiers (0..Tiers-1). Tiers are
	// drawn with geometric weights so that each higher tier is roughly half
	// as common as the one below — urgent jobs are rare, as in production
	// queues. Values <= 1 leave every job at tier 0.
	PriorityTiers int
	// Seed drives the deterministic draws; the same trace, spec and seed
	// always produce the same enrichment.
	Seed uint64
}

// Enabled reports whether the spec changes anything.
func (s EnrichSpec) Enabled() bool {
	return (s.MemDist != "" && s.MemDist != MemDistNone) || s.PriorityTiers > 1
}

// Validate rejects unknown distribution names before any work happens.
func (s EnrichSpec) Validate() error {
	switch s.MemDist {
	case "", MemDistNone, MemDistProp, MemDistUniform:
		return nil
	}
	return fmt.Errorf("trace: unknown memory distribution %q", s.MemDist)
}

// Enrich returns a clone of t with per-job memory requests and priority
// tiers assigned according to the spec. The clone's name gains a "+sc"
// suffix so enriched surrogates are cached and estimated separately from
// their classic counterparts. A disabled spec still clones but changes
// nothing (including the name).
func Enrich(t *Trace, spec EnrichSpec) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := t.Clone()
	if !spec.Enabled() {
		return c, nil
	}
	c.Name = t.Name + "+sc"
	rng := stats.NewRNG(spec.Seed ^ 0x5ce9a6107)
	memOn := spec.MemDist != "" && spec.MemDist != MemDistNone
	perProc := spec.MemPerProc
	if perProc <= 0 {
		perProc = DefaultMemPerProc
	}
	if memOn {
		c.Mem = c.Procs * perProc
	}
	for _, j := range c.Jobs {
		if memOn {
			j.Mem = drawMem(rng, spec.MemDist, j.Procs, perProc, c.Mem)
		}
		if spec.PriorityTiers > 1 {
			j.Priority = drawTier(rng, spec.PriorityTiers)
		}
	}
	return c, nil
}

// drawMem samples one job's total memory request in [1, capacity].
func drawMem(rng *stats.RNG, dist string, procs, perProc, capacity int) int {
	var m float64
	switch dist {
	case MemDistProp:
		// Lognormal noise around the job's proportional share: median ~0.7x
		// its per-core allotment, occasionally oversubscribed, so memory
		// binds for some jobs but not most — the regime where a second
		// resource dimension actually changes schedules.
		m = float64(procs) * float64(perProc) * rng.LogNormal(-0.35, 0.75)
	case MemDistUniform:
		// Uniform fraction of the whole machine, independent of width:
		// narrow jobs can be memory-hogs, the classic anti-correlated case.
		m = rng.Uniform(0, 0.5) * float64(capacity)
	}
	mem := int(math.Round(m))
	if mem < 1 {
		mem = 1
	}
	if mem > capacity {
		mem = capacity
	}
	return mem
}

// drawTier samples a priority tier in [0, tiers) with geometric weights
// (P(tier k) ∝ 2^-k), so tier 0 holds roughly half the jobs and each higher
// tier halves again. Tier k needs k lost coin flips in a row, so a tier past
// int32 has probability below 2^-(2^31) and the narrowing cannot bite.
func drawTier(rng *stats.RNG, tiers int) int32 {
	for k := 0; k < tiers-1; k++ {
		if rng.Bool(0.5) {
			return int32(k)
		}
	}
	return int32(tiers - 1)
}
