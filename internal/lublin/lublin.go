// Package lublin implements the Lublin-Feitelson workload model ("The
// workload on parallel supercomputers: modeling the characteristics of rigid
// jobs", JPDC 2003), which the paper uses to generate its two synthetic
// traces (Lublin-1, Lublin-2).
//
// The structural model follows the published one:
//
//   - job sizes: a job is serial with probability PSerial; otherwise
//     log2(size) is drawn from a two-stage uniform distribution and rounded
//     to a power of two with probability PPow2;
//   - runtimes: a hyper-gamma distribution whose first-component probability
//     depends linearly on the job size, p(n) = PA*n + PB (larger jobs tend to
//     run longer);
//   - arrivals: gamma-distributed inter-arrival gaps modulated by a diurnal
//     cycle.
//
// The original C implementation's constants target 1990s machines; the two
// presets here keep the structure but are calibrated (and covered by tests)
// to reproduce the aggregate statistics the paper reports in Table 2 for
// Lublin-1 (size 256, it 771 s, rt 4862 s, nt 22) and Lublin-2 (size 256,
// it 460 s, rt 1695 s, nt 39). Synthetic traces carry only actual runtimes;
// as in the paper, the request time equals the actual runtime (no user
// estimate exists), which is why the paper omits EASY (request-time) results
// for them.
package lublin

import (
	"math"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Params holds the Lublin-Feitelson model parameters.
type Params struct {
	Name  string
	Procs int // machine size

	// Size model.
	PSerial, PPow2                float64
	LogLo, LogMed, LogHi, LogProb float64

	// Runtime model: hyper-gamma components Gamma(A1,B1) and Gamma(A2,B2)
	// over log-runtime-like shapes; mixing probability p(n) = PA*n + PB
	// clamped to [PMin, PMax]. The drawn value is interpreted as
	// exp(g)-seconds scaled to hit MeanRuntime on average.
	A1, B1, A2, B2 float64
	PA, PB         float64
	PMin, PMax     float64
	MeanRuntime    float64 // target mean actual runtime (rt in Table 2)
	MaxRuntime     int64

	// Arrival model: Gamma(AArr, BArr) inter-arrival gaps with diurnal
	// modulation amplitude DiurnalAmp, rescaled to MeanInterarrival.
	AArr, BArr       float64
	DiurnalAmp       float64
	MeanInterarrival float64

	Users int
}

// Lublin1 returns the preset reproducing the paper's Lublin-1 trace
// (moderate load, medium jobs: it 771 s, rt 4862 s, nt 22).
func Lublin1() Params {
	return Params{
		Name:    "Lublin-1",
		Procs:   256,
		PSerial: 0.20, PPow2: 0.75,
		LogLo: 1.0, LogMed: 4.0, LogHi: 8.0, LogProb: 0.70,
		A1: 4.2, B1: 0.94, A2: 312, B2: 0.03,
		PA: -0.0015, PB: 0.70, PMin: 0.25, PMax: 0.95,
		MeanRuntime: 4862, MaxRuntime: 5 * 24 * 3600,
		AArr: 0.45, BArr: 1.0, DiurnalAmp: 0.6,
		MeanInterarrival: 771,
		Users:            80,
	}
}

// Lublin2 returns the preset reproducing the paper's Lublin-2 trace
// (heavier load, wider jobs, shorter runtimes: it 460 s, rt 1695 s, nt 39).
func Lublin2() Params {
	return Params{
		Name:    "Lublin-2",
		Procs:   256,
		PSerial: 0.10, PPow2: 0.75,
		LogLo: 2.0, LogMed: 5.2, LogHi: 8.0, LogProb: 0.65,
		A1: 4.2, B1: 0.94, A2: 312, B2: 0.03,
		PA: -0.0015, PB: 0.80, PMin: 0.3, PMax: 0.95,
		MeanRuntime: 1695, MaxRuntime: 2 * 24 * 3600,
		AArr: 0.45, BArr: 1.0, DiurnalAmp: 0.6,
		MeanInterarrival: 460,
		Users:            120,
	}
}

// Generate produces an n-job trace from the model, deterministically for a
// given seed.
func (p Params) Generate(n int, seed uint64) *trace.Trace {
	t := &trace.Trace{Name: p.Name, Procs: p.Procs}
	if n > 0 {
		t.Jobs = make([]*trace.Job, 0, n)
		_ = p.Stream(n, seed, func(j *trace.Job) error {
			t.Jobs = append(t.Jobs, j)
			return nil
		})
	}
	return t
}

// Stream produces the same n jobs Generate does — same RNG consumption
// order, hence byte-identical jobs — but hands each one to yield as it is
// built instead of materializing a job slice, so million-job archives can be
// written straight to disk with flat RSS. The model's global rescale (sample
// mean -> Table 2 targets) still needs one scalar per job per pass (an int
// and two float64s); what streaming avoids is the job structs themselves,
// which dominate the footprint. Stream stops and returns the first error
// yield reports.
func (p Params) Stream(n int, seed uint64, yield func(*trace.Job) error) error {
	rng := stats.NewRNG(seed)
	if n <= 0 {
		return nil
	}

	procs := make([]int, n)
	for i := range procs {
		procs[i] = p.sampleProcs(rng)
	}

	// Hyper-gamma runtime shapes in log space (runtimeShape: the draw is a
	// log-runtime-like quantity, exp maps it to a heavy-tailed positive
	// shape), then rescaled so the sample mean hits MeanRuntime.
	shapes := make([]float64, n)
	var sum float64
	for i := range shapes {
		shapes[i] = p.runtimeShape(rng, procs[i])
		sum += shapes[i]
	}
	scale := p.MeanRuntime * float64(n) / sum

	// Inter-arrival gaps: gamma with a diurnal cycle, rescaled to the mean.
	gaps := make([]float64, n)
	var gapSum float64
	tNow := 0.0
	for i := range gaps {
		w := 1 + p.DiurnalAmp*math.Sin(2*math.Pi*(math.Mod(tNow, 86400)-14*3600)/86400)
		if w < 0.1 {
			w = 0.1
		}
		g := rng.Gamma(p.AArr, p.BArr) / w
		gaps[i] = g
		gapSum += g
		tNow += g
	}
	gapScale := p.MeanInterarrival * float64(n) / gapSum

	var submit float64
	for i := 0; i < n; i++ {
		if i > 0 {
			submit += gaps[i] * gapScale
		}
		run := int64(math.Max(1, math.Round(shapes[i]*scale)))
		if run > p.MaxRuntime {
			run = p.MaxRuntime
		}
		j := &trace.Job{
			ID:      i + 1,
			Submit:  int64(submit),
			Runtime: run,
			// Synthetic traces have no user estimate; request = actual
			// runtime (paper §4.1.2).
			Request: run,
			Procs:   procs[i],
			User:    int32(1 + rng.Intn(p.Users)),
		}
		if err := yield(j); err != nil {
			return err
		}
	}
	return nil
}

func (p Params) sampleProcs(rng *stats.RNG) int {
	if rng.Bool(p.PSerial) {
		return 1
	}
	l := rng.TwoStageUniform(p.LogLo, p.LogMed, p.LogHi, p.LogProb)
	var v int
	if rng.Bool(p.PPow2) {
		v = 1 << int(math.Round(l))
	} else {
		v = int(math.Round(math.Pow(2, l)))
	}
	if v < 1 {
		v = 1
	}
	if v > p.Procs {
		v = p.Procs
	}
	return v
}

// Generate1 generates an n-job Lublin-1 trace.
func Generate1(n int, seed uint64) *trace.Trace { return Lublin1().Generate(n, seed) }

// Generate2 generates an n-job Lublin-2 trace.
func Generate2(n int, seed uint64) *trace.Trace { return Lublin2().Generate(n, seed) }
