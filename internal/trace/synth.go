package trace

import (
	"math"

	"repro/internal/stats"
)

// SynthSpec parameterises the statistical surrogate generator used in place
// of the Parallel Workloads Archive files (which cannot be fetched in an
// offline build). The generator reproduces the aggregate characteristics the
// paper reports in Table 2 — machine size, mean inter-arrival time, mean
// requested runtime and mean requested processors — together with the
// qualitative properties backfilling depends on: heavy-tailed runtimes,
// power-of-two-biased job sizes, a diurnal arrival cycle, and user
// over-estimation of wall time.
type SynthSpec struct {
	Name  string
	Procs int // machine size

	MeanInterarrival float64 // target mean seconds between submissions
	MeanRequest      float64 // target mean requested time (seconds)

	// Job-size model: with probability PSerial the job is serial; otherwise
	// log2(size) follows a two-stage uniform distribution over
	// [LogLo, LogMed, LogHi] with first-stage probability LogProb, and with
	// probability PPow2 the size is rounded to a power of two.
	PSerial, PPow2                float64
	LogLo, LogMed, LogHi, LogProb float64

	// Runtime model: runtimes are lognormal shapes (sigma = RunSigma),
	// rescaled so that the mean *request* time matches MeanRequest. The
	// request factor is 1 + Exponential(OverMean-1), i.e. users overestimate
	// by OverMean on average (Mu'alem & Feitelson report large, skewed
	// overestimation on the SP2 traces).
	RunSigma float64
	OverMean float64

	// MaxRequest caps requested time (seconds); typical queue limit.
	MaxRequest int64

	// Diurnal arrival cycle: the instantaneous arrival rate is modulated by
	// 1 + DiurnalAmp*sin(2*pi*(t-peak)/day), peaking mid-afternoon.
	DiurnalAmp float64

	// ArrivalShape is the gamma shape of the inter-arrival gaps (1 =
	// exponential/Poisson). Archive traces are far burstier than Poisson —
	// shapes well below 1 produce the submission bursts and deep queues that
	// give real traces their high bounded slowdowns.
	ArrivalShape float64

	// Users is the size of the synthetic user population.
	Users int
}

// SDSCSP2Spec returns the surrogate parameters for the SDSC-SP2 trace
// (Table 2: size 128, it 1055 s, rt 6687 s, nt 11).
func SDSCSP2Spec() SynthSpec {
	return SynthSpec{
		Name:             "SDSC-SP2",
		Procs:            128,
		MeanInterarrival: 1055,
		MeanRequest:      6687,
		PSerial:          0.25,
		PPow2:            0.65,
		LogLo:            0.5,
		LogMed:           3.0,
		LogHi:            7.0,
		LogProb:          0.75,
		RunSigma:         1.7,
		OverMean:         2.2,
		MaxRequest:       5 * 24 * 3600,
		DiurnalAmp:       0.5,
		ArrivalShape:     0.28,
		Users:            100,
	}
}

// HPC2NSpec returns the surrogate parameters for the HPC2N trace
// (Table 2: size 240, it 538 s, rt 17024 s, nt 6).
func HPC2NSpec() SynthSpec {
	return SynthSpec{
		Name:             "HPC2N",
		Procs:            240,
		MeanInterarrival: 538,
		MeanRequest:      17024,
		PSerial:          0.35,
		PPow2:            0.55,
		LogLo:            0.0,
		LogMed:           1.8,
		LogHi:            7.9,
		LogProb:          0.85,
		RunSigma:         2.0,
		OverMean:         4.0,
		MaxRequest:       10 * 24 * 3600,
		DiurnalAmp:       0.6,
		ArrivalShape:     0.30,
		Users:            200,
	}
}

// Generate produces n jobs according to the spec, deterministically for a
// given seed.
func (s SynthSpec) Generate(n int, seed uint64) *Trace {
	t := &Trace{Name: s.Name, Procs: s.Procs}
	if n > 0 {
		t.Jobs = make([]*Job, 0, n)
		_ = s.Stream(n, seed, func(j *Job) error {
			t.Jobs = append(t.Jobs, j)
			return nil
		})
	}
	return t
}

// Stream produces the same n jobs Generate does — same RNG consumption
// order, hence byte-identical jobs — handing each one to yield as it is
// built instead of materializing a job slice (see lublin.Params.Stream for
// the rationale: the global rescale passes keep one scalar per job, the job
// structs themselves never accumulate). Stream stops and returns the first
// error yield reports.
func (s SynthSpec) Stream(n int, seed uint64, yield func(*Job) error) error {
	rng := stats.NewRNG(seed)
	if n <= 0 {
		return nil
	}

	procs := make([]int, n)
	for i := range procs {
		procs[i] = s.sampleProcs(rng)
	}

	// Raw runtime shapes and per-job overestimation factors; rescaled below
	// so the mean request hits the Table 2 target.
	runShape := make([]float64, n)
	overF := make([]float64, n)
	cap4sigma := math.Exp(4 * s.RunSigma) // clamp the lognormal tail
	var reqSum float64
	for i := range runShape {
		v := rng.LogNormal(0, s.RunSigma)
		if v > cap4sigma {
			v = cap4sigma
		}
		runShape[i] = v
		// Users overestimate short jobs wildly (a crashed job requested for
		// hours) but request long jobs accurately (queue limits force it) —
		// the pattern Mu'alem & Feitelson report. Damping the factor by the
		// runtime shape keeps the per-job ratio mean high while letting the
		// aggregate actual load approach the requested load.
		f := 1 + rng.Exponential(math.Max(s.OverMean-1, 0.01))/(1+math.Log1p(v))
		overF[i] = f
		reqSum += v * f
	}
	scale := s.MeanRequest * float64(n) / reqSum
	// The MaxRequest cap truncates the distribution's tail, pulling the mean
	// below the target; compensate by iterating the scale against the capped
	// mean (a fixed point is reached within a few rounds).
	for iter := 0; iter < 8; iter++ {
		var capped float64
		for i := range runShape {
			v := runShape[i] * overF[i] * scale
			if v > float64(s.MaxRequest) {
				v = float64(s.MaxRequest)
			}
			capped += v
		}
		cappedMean := capped / float64(n)
		if math.Abs(cappedMean-s.MeanRequest) < 0.001*s.MeanRequest {
			break
		}
		scale *= s.MeanRequest / cappedMean
	}

	// Inter-arrival gaps with a diurnal cycle, rescaled to the target mean.
	gaps := make([]float64, n)
	var gapSum float64
	tNow := 0.0
	for i := range gaps {
		w := 1 + s.DiurnalAmp*math.Sin(2*math.Pi*(math.Mod(tNow, 86400)-14*3600)/86400)
		if w < 0.1 {
			w = 0.1
		}
		shape := s.ArrivalShape
		if shape <= 0 || shape >= 1 {
			shape = 1
		}
		// Gamma with mean MeanInterarrival/w; shape < 1 concentrates mass
		// near zero (bursts) with a heavy tail (lulls).
		g := rng.Gamma(shape, s.MeanInterarrival/(w*shape))
		gaps[i] = g
		gapSum += g
		tNow += g
	}
	gapScale := s.MeanInterarrival * float64(n) / gapSum

	var submit float64
	for i := 0; i < n; i++ {
		if i > 0 {
			submit += gaps[i] * gapScale
		}
		run := int64(math.Max(1, math.Round(runShape[i]*scale)))
		req := int64(math.Round(runShape[i] * overF[i] * scale))
		if req < run {
			req = run
		}
		if req > s.MaxRequest {
			req = s.MaxRequest
			if run > req {
				run = req
			}
		}
		j := &Job{
			ID:      i + 1,
			Submit:  int64(submit),
			Runtime: run,
			Request: req,
			Procs:   procs[i],
			User:    int32(1 + rng.Intn(maxInt(s.Users, 1))),
		}
		if err := yield(j); err != nil {
			return err
		}
	}
	return nil
}

func (s SynthSpec) sampleProcs(rng *stats.RNG) int {
	if rng.Bool(s.PSerial) {
		return 1
	}
	l := rng.TwoStageUniform(s.LogLo, s.LogMed, s.LogHi, s.LogProb)
	var p int
	if rng.Bool(s.PPow2) {
		p = 1 << int(math.Round(l))
	} else {
		p = int(math.Round(math.Pow(2, l)))
	}
	if p < 1 {
		p = 1
	}
	if p > s.Procs {
		p = s.Procs
	}
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SyntheticSDSCSP2 generates an n-job SDSC-SP2 surrogate trace.
func SyntheticSDSCSP2(n int, seed uint64) *Trace { return SDSCSP2Spec().Generate(n, seed) }

// SyntheticHPC2N generates an n-job HPC2N surrogate trace.
func SyntheticHPC2N(n int, seed uint64) *Trace { return HPC2NSpec().Generate(n, seed) }
