package lublin

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/stats"
	"repro/internal/trace"
)

// HugeSpec composes k independent Lublin partition streams into one
// submit-sorted workload on a multi-thousand-node machine — the huge-scale
// scenario (ROADMAP: k8s-simulator magnitudes). Each stream is the Base
// model sized to one partition (jobs never exceed Base.Procs processors,
// nor Nodes on a machine narrower than one partition); the machine is Nodes
// processors wide and its utilization is steered to Load by tuning the
// per-stream inter-arrival scale.
//
// Unlike Params.Generate, which rescales against the full sample in a
// second pass, each stream here is drawn in one pass: its runtime and gap
// scales come from a fixed-size calibration pre-sample drawn from a
// separate RNG, so no O(n) scalar arrays exist at all. The price is that
// realized aggregates track the targets statistically (law of large numbers
// over the pre-sample) instead of exactly; TestHugeLoadCalibration pins the
// tolerance.
//
// Streams are independent, so each is drawn by its own producer goroutine,
// at most GOMAXPROCS computing at once, into fixed-size chunks it recycles;
// the merge into submit order runs on the caller's goroutine. A stream
// draws at most two chunks past what the merge takes from it, and the
// chunks of all streams together hold at most hugeBufferJobs jobs, so a
// Stream of a million jobs runs in flat memory. Every stream's random
// sequence is the same as drawn one after another, so the trace does not
// depend on GOMAXPROCS or on goroutine scheduling.
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
// p.MeanRuntime after the MaxRuntime cap) and gap scale (raw gamma draw ->
// seconds such that all Streams together occupy Load of the machine) from a
// pre-sample drawn off a calibration-only RNG.
func (h HugeSpec) calibrate(p Params, streamSeed uint64) (runScale, gapScale float64) {
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

// hugeBufferJobs caps the jobs held in chunks at once, over all streams of
// one Stream call: 16 Ki jobs, under 2 MiB. Each stream owns two chunks (the
// one the merge reads and the one its producer fills), so hugeChunk sizes a
// chunk to at most hugeBufferJobs/(2*Streams) jobs; the cap holds for up to
// hugeBufferJobs/2 streams, past which chunks bottom out at one job.
const hugeBufferJobs = 1 << 14

// hugeChunk is the chunk size for n jobs over the given streams: 1/32 of a
// stream's even share of n, so the at most two chunks a stream draws past
// the end of the trace stay a few percent of its work (they are pure loss on
// one core), cut to the buffer cap and at least one job.
func hugeChunk(n, streams int) int {
	c := (n + 32*streams - 1) / (32 * streams)
	return max(1, min(c, hugeBufferJobs/(2*streams)))
}

// hugePart is one partition stream's generation state: its RNG, calibrated
// scales and submit clock.
type hugePart struct {
	p        Params
	rng      *stats.RNG
	runScale float64
	gapScale float64
	submit   float64
	user0    int // user-id offset so partitions have disjoint populations
}

// part calibrates stream s of the composition seeded by seed. The stream's
// model is Base, narrowed to the machine when the machine is smaller than
// one partition, so every job fits.
func (h HugeSpec) part(s int, seed uint64) *hugePart {
	p := h.Base
	p.Procs = min(p.Procs, h.Nodes)
	streamSeed := seed + uint64(s)*0x9e3779b97f4a7c15
	runScale, gapScale := h.calibrate(p, streamSeed)
	return &hugePart{
		p:        p,
		rng:      stats.NewRNG(streamSeed),
		runScale: runScale,
		gapScale: gapScale,
		user0:    s * p.Users,
	}
}

// draw writes the stream's next job into j; the caller numbers it. The
// diurnal and weekly cycles modulate the gap by the stream's (scaled)
// submit clock.
func (st *hugePart) draw(j *trace.Job) {
	p := &st.p
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
	*j = trace.Job{
		Submit:  int64(st.submit),
		Runtime: run,
		Request: run, // synthetic: no user estimate, as with Lublin-1/2
		Procs:   procs,
		User:    int32(st.user0 + 1 + st.rng.Intn(p.Users)),
	}
}

// produce runs stream s: it calibrates, then fills chunks of size jobs and
// sends each on full, refilling the chunks the merge hands back on free. It
// holds a slot of sem while it computes and never while it waits, so at
// most cap(sem) producers compute at once, and it returns once done closes.
func (h HugeSpec) produce(s int, seed uint64, size int, full chan<- []trace.Job, free <-chan []trace.Job, sem chan struct{}, done <-chan struct{}) {
	select {
	case sem <- struct{}{}:
	case <-done:
		return
	}
	st := h.part(s, seed)
	buf := make([]trace.Job, size)
	for k := 0; ; k++ {
		for i := range buf {
			st.draw(&buf[i])
		}
		<-sem
		select {
		case full <- buf:
		case <-done:
			return
		}
		if k == 0 {
			buf = make([]trace.Job, size) // the stream's second and last chunk
		} else {
			// The merge hands a chunk back before it takes the next, so the
			// one it read before the chunk just sent is already waiting.
			buf = <-free
		}
		select {
		case sem <- struct{}{}:
		case <-done:
			return
		}
	}
}

// hugeHead is the merge's view of one stream: the chunk it reads and the
// channels it trades chunks with.
type hugeHead struct {
	full <-chan []trace.Job
	free chan<- []trace.Job
	buf  []trace.Job
	i    int
}

// next moves to the stream's next job, handing an exhausted chunk back to
// the producer, and returns its submit time.
func (hd *hugeHead) next() int64 {
	if hd.i++; hd.i >= len(hd.buf) {
		if hd.buf != nil {
			hd.free <- hd.buf
		}
		hd.buf, hd.i = <-hd.full, 0
	}
	return hd.buf[hd.i].Submit
}

// Stream generates n jobs merged across all partition streams in submit
// order and hands each to yield as it is built. Job IDs are 1..n in merged
// order and submit times are rebased so the first job arrives at 0 (the
// Trace invariants). Ties between streams break toward the lowest stream
// index, so the merge is deterministic. Stops on the first yield error.
// Each yielded job is a fresh allocation the callee may keep.
func (h HugeSpec) Stream(n int, seed uint64, yield func(*trace.Job) error) error {
	return h.merge(n, seed, func(j *trace.Job) error {
		c := *j
		return yield(&c)
	})
}

// merge runs one producer goroutine per stream and merges their chunks on
// the caller's goroutine, handing emit each job in turn. The job emit sees
// lives in a producer's chunk and is overwritten once emit returns. merge
// returns after every producer has exited.
func (h HugeSpec) merge(n int, seed uint64, emit func(*trace.Job) error) error {
	if n <= 0 || h.Streams <= 0 {
		return nil
	}
	size := hugeChunk(n, h.Streams)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(done)
		wg.Wait()
	}()
	heads := make([]hugeHead, h.Streams)
	for s := range heads {
		// free has room for the one chunk the merge hands back while the
		// producer fills the stream's other chunk.
		full, free := make(chan []trace.Job), make(chan []trace.Job, 1)
		heads[s] = hugeHead{full: full, free: free, i: -1}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.produce(s, seed, size, full, free, sem, done)
		}()
	}
	keys := make([]int64, len(heads)) // each stream's next submit time
	for s := range heads {
		keys[s] = heads[s].next()
	}
	var base int64
	for id := 1; id <= n; id++ {
		// The stream count is small (one per partition), so a linear min
		// scan beats heap bookkeeping; strict < keeps ties on the lowest
		// stream index.
		m := 0
		for s := 1; s < len(keys); s++ {
			if keys[s] < keys[m] {
				m = s
			}
		}
		j := &heads[m].buf[heads[m].i]
		if id == 1 {
			base = j.Submit
		}
		j.ID = id
		j.Submit -= base
		if err := emit(j); err != nil {
			return err
		}
		if id < n {
			keys[m] = heads[m].next()
		}
	}
	return nil
}

// Generate materializes a Stream into a trace for in-memory replay. The jobs
// share one backing array.
func (h HugeSpec) Generate(n int, seed uint64) *trace.Trace {
	t := &trace.Trace{Name: h.Name(), Procs: h.Nodes}
	if n > 0 {
		slab := make([]trace.Job, 0, n)
		_ = h.merge(n, seed, func(j *trace.Job) error { // emit never fails
			slab = append(slab, *j)
			return nil
		})
		t.Jobs = make([]*trace.Job, len(slab))
		for i := range slab {
			t.Jobs[i] = &slab[i]
		}
	}
	return t
}
