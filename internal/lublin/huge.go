package lublin

import (
	"math"

	"repro/internal/stats"
	"repro/internal/trace"
)

// HugeSpec composes k independent Lublin partition streams into one
// submit-sorted workload on a multi-thousand-node machine — the huge-scale
// scenario (ROADMAP: k8s-simulator magnitudes). Each stream is the Base
// model sized to one partition (jobs never exceed Base.Procs processors);
// the machine is Nodes processors wide and its utilization is steered to
// Load by tuning the per-stream inter-arrival scale.
//
// Unlike Params.Generate, which rescales against the full sample in a
// second pass, the huge path is strictly single-pass: each stream's runtime
// and gap scales come from a fixed-size calibration pre-sample drawn from a
// separate RNG, so a million-job trace streams job-by-job with flat RSS and
// no O(n) scalar arrays at all. The price is that realized aggregates track
// the targets statistically (law of large numbers over the pre-sample)
// instead of exactly; TestHugeLoadCalibration pins the tolerance.
type HugeSpec struct {
	Nodes   int     // machine size in processors
	Streams int     // independent partition streams
	Load    float64 // target machine utilization in (0, 1)
	Base    Params  // per-partition model; Base.Procs is the partition width
}

// Huge fills in the huge-scale defaults for any zero argument: a 4096-node
// machine, one Lublin-1 partition stream per Base.Procs nodes, and a target
// utilization of 0.8 (loaded enough for deep backlogs, below saturation so
// drain points still occur).
func Huge(nodes, streams int, load float64) HugeSpec {
	base := Lublin1()
	if nodes <= 0 {
		nodes = 4096
	}
	if streams <= 0 {
		streams = nodes / base.Procs
		if streams < 1 {
			streams = 1
		}
	}
	if load <= 0 {
		load = 0.8
	}
	return HugeSpec{Nodes: nodes, Streams: streams, Load: load, Base: base}
}

// Name is the trace name the spec generates under. The experiments layer
// treats it like the other Lublin traces: synthetic, no user estimates, so
// reservations use actual runtimes.
func (h HugeSpec) Name() string { return "Lublin-Huge" }

// hugeCalibSamples is the calibration pre-sample size per stream. Runtime
// shapes are the widest distribution being estimated; at 4096 draws the
// sample mean's relative error is a few percent, far inside the tolerance
// the load test pins.
const hugeCalibSamples = 4096

// calibrate estimates one stream's runtime scale (shape -> seconds hitting
// Base.MeanRuntime after the MaxRuntime cap) and gap scale (raw gamma draw
// -> seconds such that all Streams together occupy Load of the machine)
// from a pre-sample drawn off a calibration-only RNG.
func (h HugeSpec) calibrate(streamSeed uint64) (runScale, gapScale float64) {
	p := h.Base
	rng := stats.NewRNG(streamSeed ^ 0xc2b2ae3d27d4eb4f)
	shapes := make([]float64, hugeCalibSamples)
	widths := make([]int, hugeCalibSamples)
	var shapeSum, gapSum float64
	for i := range shapes {
		widths[i] = p.sampleProcs(rng)
		shapes[i] = p.runtimeShape(rng, widths[i])
		shapeSum += shapes[i]
		gapSum += rng.Gamma(p.AArr, p.BArr)
	}
	runScale = p.MeanRuntime * hugeCalibSamples / shapeSum
	// Occupancy is the mean of the per-job PRODUCT runtime*width: the model
	// correlates the two (the hyper-gamma mix shifts with job width), so
	// multiplying the separate means would understate the work by ~30%. The
	// MaxRuntime cap is applied per sample, as generation will.
	var workSum float64
	for i, v := range shapes {
		r := v * runScale
		if r > float64(p.MaxRuntime) {
			r = float64(p.MaxRuntime)
		}
		workSum += r * float64(widths[i])
	}
	meanWork := workSum / hugeCalibSamples
	// Load = Streams * meanWork / (itStream * Nodes), solved for the
	// per-stream inter-arrival time.
	itStream := float64(h.Streams) * meanWork / (h.Load * float64(h.Nodes))
	gapScale = itStream * hugeCalibSamples / gapSum
	return runScale, gapScale
}

// runtimeShape draws one raw runtime shape (the hyper-gamma in log space
// Params.Stream uses) for a job of the given width.
func (p Params) runtimeShape(rng *stats.RNG, procs int) float64 {
	mix := p.PA*float64(procs) + p.PB
	if mix < p.PMin {
		mix = p.PMin
	}
	if mix > p.PMax {
		mix = p.PMax
	}
	g := rng.HyperGamma(p.A1, p.B1, p.A2, p.B2, mix)
	v := math.Exp(g * 0.9)
	if v > 1e7 {
		v = 1e7
	}
	return v
}

// hugeWeeklyAmp modulates the arrival rate on a 7-day cycle on top of the
// per-stream diurnal one, peaking midweek and bottoming out on the weekend.
// A day is short next to the model's multi-hour jobs, so the diurnal cycle
// alone stacks only a few hundred jobs of backlog on a 4096-node machine;
// the weekly swing sustains overload for days at a time, driving the
// reservation skyline thousands of segments deep — the regime archive
// workloads exhibit and conservative FindStart walks cross — while the
// weekend trough lets the backlog recover so replay cost stays linear in
// trace length.
const hugeWeeklyAmp = 0.5

// hugePart is one partition stream's generation state: its RNG, calibrated
// scales, submit clock, and the next job already drawn (the merge head).
type hugePart struct {
	p        Params
	rng      *stats.RNG
	runScale float64
	gapScale float64
	submit   float64
	user0    int // user-id offset so partitions have disjoint populations
	next     *trace.Job
}

// advance draws the stream's next job. The diurnal and weekly cycles
// modulate the gap by the stream's (scaled) submit clock.
func (st *hugePart) advance() {
	p := st.p
	procs := p.sampleProcs(st.rng)
	run := int64(math.Max(1, math.Round(p.runtimeShape(st.rng, procs)*st.runScale)))
	if run > p.MaxRuntime {
		run = p.MaxRuntime
	}
	w := 1 + p.DiurnalAmp*math.Sin(2*math.Pi*(math.Mod(st.submit, 86400)-14*3600)/86400)
	w *= 1 + hugeWeeklyAmp*math.Sin(2*math.Pi*(math.Mod(st.submit, 7*86400)-3*86400)/(7*86400))
	if w < 0.1 {
		w = 0.1
	}
	st.submit += st.rng.Gamma(p.AArr, p.BArr) / w * st.gapScale
	st.next = &trace.Job{
		Submit:  int64(st.submit),
		Runtime: run,
		Request: run, // synthetic: no user estimate, as with Lublin-1/2
		Procs:   procs,
		User:    st.user0 + 1 + st.rng.Intn(p.Users),
		Status:  1,
	}
}

// Stream generates n jobs merged across all partition streams in submit
// order and hands each to yield as it is built. Job IDs are 1..n in merged
// order and submit times are rebased so the first job arrives at 0 (the
// Trace invariants). Ties between streams break toward the lowest stream
// index, so the merge is deterministic. Stops on the first yield error.
func (h HugeSpec) Stream(n int, seed uint64, yield func(*trace.Job) error) error {
	if n <= 0 || h.Streams <= 0 {
		return nil
	}
	parts := make([]*hugePart, h.Streams)
	for s := range parts {
		streamSeed := seed + uint64(s)*0x9e3779b97f4a7c15
		runScale, gapScale := h.calibrate(streamSeed)
		parts[s] = &hugePart{
			p:        h.Base,
			rng:      stats.NewRNG(streamSeed),
			runScale: runScale,
			gapScale: gapScale,
			user0:    s * h.Base.Users,
		}
		parts[s].advance()
	}
	var base int64
	for id := 1; id <= n; id++ {
		// The stream count is small (one per partition), so a linear min
		// scan beats heap bookkeeping; strict < keeps ties on the lowest
		// stream index.
		min := 0
		for s := 1; s < len(parts); s++ {
			if parts[s].next.Submit < parts[min].next.Submit {
				min = s
			}
		}
		j := parts[min].next
		parts[min].advance()
		if id == 1 {
			base = j.Submit
		}
		j.ID = id
		j.Submit -= base
		if err := yield(j); err != nil {
			return err
		}
	}
	return nil
}

// Generate materializes a Stream into a trace (for in-memory replay and the
// huge benchmarks).
func (h HugeSpec) Generate(n int, seed uint64) *trace.Trace {
	t := &trace.Trace{Name: h.Name(), Procs: h.Nodes}
	if n > 0 {
		t.Jobs = make([]*trace.Job, 0, n)
		_ = h.Stream(n, seed, func(j *trace.Job) error {
			t.Jobs = append(t.Jobs, j)
			return nil
		})
	}
	return t
}
