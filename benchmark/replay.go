package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/backfill"
	"repro/internal/cluster"
	"repro/internal/eventq"
	"repro/internal/experiments"
	"repro/internal/lublin"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// replaySpec is one replay workload: parts independent traces of jobs jobs
// each, from seeds derived from the run's. A unit is the replay of one part;
// units are short (a third of a second) so that a run holds many of each,
// while the parts together hold enough distinct jobs that the seed does not
// decide the result.
//
// Every unit of a part does identical work, so whatever else the host runs
// can only add time. It does so in hits of a few milliseconds, many per
// second, that no unit escapes (the same 3.4 ms of arithmetic took 3.4 to 8 ms
// in every second of a minute, its fastest repetition within 1% throughout).
// A unit is therefore timed in laps of lapSteps event batches, a few
// milliseconds each, and a part costs the sum over its laps of the fastest
// time any unit took for that lap.
//
// With depth 0 a part is replayed as generated (arrivals at their submit
// times). With depth > 0 the driver injects the part's jobs, in order,
// whenever fewer than depth jobs are waiting: the backlog the planner
// re-plans every round is then a property of the workload, not of the seed.
// Replaying the raw trace under conservative backfilling made the cost per
// job swing tenfold between seeds (README.md, "Why replay-cons holds the
// queue").
type replaySpec struct {
	parts    int
	jobs     int
	depth    int
	lapSteps int
	mkBF     func() backfill.Backfiller
}

func easySpec(c *runCtx) replaySpec {
	return replaySpec{
		parts:    4,
		jobs:     c.scale(25_000, 1_000),
		lapSteps: 256,
		mkBF:     func() backfill.Backfiller { return backfill.NewEASY(backfill.RequestTime{}) },
	}
}

func consSpec(c *runCtx) replaySpec {
	return replaySpec{
		parts:    4,
		jobs:     c.scale(1_200, 200),
		depth:    c.scale(128, 32),
		lapSteps: 8,
		mkBF:     func() backfill.Backfiller { return backfill.NewConservative(backfill.ActualRuntime{}) },
	}
}

// replayGoldens pins the seed-1 record streams at full size: CRC32C over the
// parts' digests (each CRC32C over id, start, end in job-id order), and the
// mean over parts of the mean bounded slowdown.
var replayGoldens = map[string]struct {
	digest string
	bsld   float64
}{
	"replay-easy": {"85a5761e", 22.1009},
	"replay-cons": {"e4d3e53b", 9.7079},
}

// replayPart is one of a run's traces with what its reference unit produced,
// how long each of its timed units took, and the fastest time any of them
// took for each lap.
type replayPart struct {
	tr     *trace.Trace
	ref    string
	plain  time.Duration
	unitS  []float64
	lapMin []time.Duration
}

// fold takes one unit's laps (cumulative times) into the part's minima.
func (p *replayPart) fold(laps []time.Duration) {
	if p.lapMin == nil {
		p.lapMin = make([]time.Duration, len(laps))
		for i := range p.lapMin {
			p.lapMin[i] = math.MaxInt64
		}
	}
	prev := time.Duration(0)
	for i, t := range laps {
		p.lapMin[i] = min(p.lapMin[i], t-prev)
		prev = t
	}
}

// cost is the part's time by its fastest laps.
func (p *replayPart) cost() (sum time.Duration) {
	for _, d := range p.lapMin {
		sum += d
	}
	return sum
}

func hugeTrace(n int, seed uint64) *trace.Trace {
	return experiments.HugeTrace(lublin.Huge(0, 0, 0), n, seed)
}

// generate makes the run's traces and calls lap after each.
func (rs replaySpec) generate(seed uint64, lap func()) []*replayPart {
	parts := make([]*replayPart, rs.parts)
	for i := range parts {
		parts[i] = &replayPart{tr: hugeTrace(rs.jobs, seed*uint64(rs.parts)+uint64(i))}
		lap()
	}
	return parts
}

// replayOnce runs one unit and returns the engine's records and how many
// event batches it stepped through. With laps it appends the time since the
// unit began at every lapSteps-th batch and at the end: the same instants of
// the replay in every unit of a part.
func (rs replaySpec) replayOnce(tr *trace.Trace, bf backfill.Backfiller, laps *[]time.Duration) ([]metrics.Record, int, error) {
	cfg := sim.Config{Policy: sched.FCFS{}, Backfiller: bf}
	t0 := time.Now()
	steps := 0
	stepped := func() {
		steps++
		if laps != nil && steps%rs.lapSteps == 0 {
			*laps = append(*laps, time.Since(t0))
		}
	}
	done := func(recs []metrics.Record) ([]metrics.Record, int, error) {
		if laps != nil {
			*laps = append(*laps, time.Since(t0))
		}
		return recs, steps, nil
	}
	if rs.depth == 0 {
		eng, err := sim.NewEngine(tr, cfg)
		if err != nil {
			return nil, 0, err
		}
		for eng.Step() {
			stepped()
		}
		return done(eng.Records())
	}
	eng, err := sim.NewLiveEngine(tr.Name, tr.Procs, tr.Mem, cfg)
	if err != nil {
		return nil, 0, err
	}
	next := 0
	for {
		for next < len(tr.Jobs) && eng.QueueLen()+eng.PendingArrivals() < rs.depth {
			j := tr.Jobs[next]
			j.Submit = eng.Now()
			if err := eng.Inject(j); err != nil {
				return nil, 0, err
			}
			next++
		}
		if !eng.Step() {
			break
		}
		stepped()
	}
	return done(eng.Records())
}

// recordDigest hashes (id, start, end) in job-id order, so a start-ordered
// engine stream and a trace-ordered sharded stream compare equal. It also
// reports how many of the trace's jobs have no record. Generated traces
// number their jobs 1..n.
func recordDigest(tr *trace.Trace, recs []metrics.Record) (digest string, missing int, bsld float64) {
	type se struct {
		start, end int64
		ok         bool
	}
	byID := make([]se, tr.Len()+1)
	for _, r := range recs {
		if id := r.Job.ID; id >= 1 && id < len(byID) {
			byID[id] = se{r.Start, r.End, true}
		}
		bsld += r.BoundedSlowdown()
	}
	if len(recs) > 0 {
		bsld /= float64(len(recs))
	}
	h := crc32.New(castagnoli)
	var b [24]byte
	for _, j := range tr.Jobs {
		r := byID[j.ID]
		if !r.ok {
			missing++
			continue
		}
		binary.LittleEndian.PutUint64(b[0:], uint64(j.ID))
		binary.LittleEndian.PutUint64(b[8:], uint64(r.start))
		binary.LittleEndian.PutUint64(b[16:], uint64(r.end))
		h.Write(b[:])
	}
	return fmt.Sprintf("%08x", h.Sum32()), missing, bsld
}

func runReplayEasy(c *runCtx) error { return runReplay(c, easySpec(c)) }
func runReplayCons(c *runCtx) error { return runReplay(c, consSpec(c)) }

func runReplay(c *runCtx, rs replaySpec) error {
	// Set-up, five times over: inputs from the seed, then a warm-up replay of
	// the first trace so the first timed unit does not pay for page faults
	// and lazy runtime initialisation. It is a third of a second of pure
	// computation at the very start of a process, and the median of five read
	// 0.38 to 0.67 s over ten runs; so it is timed like a part, in laps (each
	// trace generated, then the warm-up's laps) kept by their fastest
	// repetition.
	reps := c.scale(5, 1)
	if c.traced {
		reps = 1 // setup_s is an end-to-end metric; one set-up will do
	}
	var parts []*replayPart
	var setup replayPart
	var laps, warm []time.Duration
	for i := 0; i < reps; i++ {
		laps, warm = laps[:0], warm[:0]
		t0 := time.Now()
		parts = rs.generate(c.seed, func() { laps = append(laps, time.Since(t0)) })
		gen := time.Since(t0)
		if _, _, err := rs.replayOnce(parts[0].tr, rs.mkBF(), &warm); err != nil {
			return err
		}
		for _, w := range warm {
			laps = append(laps, gen+w)
		}
		setup.fold(laps)
	}
	c.set("setup_s", setup.cost().Seconds())
	var gen time.Duration
	for _, d := range setup.lapMin[:rs.parts] {
		gen += d
	}
	c.set("trace.gen_s", gen.Seconds())

	// One untraced unit per part is the reference for every check, traced
	// or not.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	all := crc32.New(castagnoli)
	var bsld float64
	for _, p := range parts {
		t0 := time.Now()
		recs, _, err := rs.replayOnce(p.tr, rs.mkBF(), nil)
		if err != nil {
			return err
		}
		p.plain = time.Since(t0)
		var missing int
		var b float64
		p.ref, missing, b = recordDigest(p.tr, recs)
		bsld += b / float64(len(parts))
		all.Write([]byte(p.ref))
		c.attempted += int64(p.tr.Len())
		c.failed += int64(missing)
		if missing > 0 {
			c.fail("%d of %d jobs have no record", missing, p.tr.Len())
		}
	}
	runtime.ReadMemStats(&m1)
	jobs := float64(rs.parts * rs.jobs)
	c.set("sim.allocs_per_job", float64(m1.Mallocs-m0.Mallocs)/jobs)
	c.set("sim.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	ref := fmt.Sprintf("%08x", all.Sum32())
	c.digest("records", ref)
	c.note("%s: %d x %d jobs, digest %s, mean bsld %.4f", c.workload, rs.parts, rs.jobs, ref, bsld)
	if g := replayGoldens[c.workload]; !c.smoke && c.seed == 1 && g.digest != "" {
		if ref != g.digest || math.Abs(bsld-g.bsld) > 5e-5 {
			c.fail("seed-1 record streams %s (bsld %.4f) differ from the committed golden %s (bsld %.4f)", ref, bsld, g.digest, g.bsld)
		}
	}
	if c.traced {
		return traceReplay(c, rs, parts)
	}

	budget := c.dur(c.seconds)
	units := 0
	for start := time.Now(); time.Since(start) < budget || units < 3*len(parts); units++ {
		p := parts[units%len(parts)]
		laps = laps[:0]
		recs, _, err := rs.replayOnce(p.tr, rs.mkBF(), &laps)
		if err != nil {
			return err
		}
		p.unitS = append(p.unitS, laps[len(laps)-1].Seconds())
		p.fold(laps)
		d, missing, _ := recordDigest(p.tr, recs)
		c.attempted += int64(p.tr.Len())
		c.failed += int64(missing)
		if d != p.ref {
			c.fail("unit %d produced record stream %s, the part's first produced %s", units, d, p.ref)
		}
	}
	// One pass is every part once, by its fastest laps.
	var pass, passMedian float64
	for _, p := range parts {
		pass += p.cost().Seconds()
		passMedian += median(p.unitS)
	}
	c.set("work_per_s", jobs/pass)
	c.set("wait_ms", pass*1e3)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	c.set("peak_rss_mb", rss)
	c.note("%d units: one pass takes %.4fs by fastest laps (%d of them), %.4fs by median units", units, pass, len(parts[0].lapMin), passMedian)
	return nil
}

// traceReplay is the traced run of a replay workload: the same units with
// the timing Backfiller+State decorator, micro-drives of the kernel pieces
// at the sizes the decorator saw, and (static traces only) a sharded replay.
func traceReplay(c *runCtx, rs replaySpec, parts []*replayPart) error {
	buf := newSpanBuf()
	tb := &timedBackfiller{buf: buf}
	var traced, plain time.Duration
	steps := 0
	for _, p := range parts {
		tb.inner = rs.mkBF()
		t0 := time.Now()
		recs, n, err := rs.replayOnce(p.tr, tb, nil)
		if err != nil {
			return err
		}
		t1 := time.Now()
		buf.add("sim.run", 0, 0, t0, t1)
		traced += t1.Sub(t0)
		plain += p.plain
		steps += n
		if d, _, _ := recordDigest(p.tr, recs); d != p.ref {
			c.fail("decorated backfiller changed the schedule: %s, undecorated %s", d, p.ref)
		}
		c.attempted += int64(p.tr.Len())
	}
	c.set("sim.steps", float64(steps))
	c.set("sim.self_s", (traced - tb.busy).Seconds())
	tb.report(c)
	c.set("trace.overhead_share", (traced-plain).Seconds()/plain.Seconds())

	q, r := int(median(tb.qlen)), int(median(tb.running))
	kernelDrives(c, parts[0].tr.Procs, max(q, 1), max(r, 1))

	if rs.depth == 0 {
		// The decorator hides backfill.Cloneable, so the sharded replay gets
		// the bare backfiller; the digest check ties it back to the others.
		p := parts[0]
		window := max(p.tr.Len()/4, 256)
		t0 := time.Now()
		res, err := shard.ReplayWith(p.tr, sched.FCFS{}, rs.mkBF,
			shard.Config{Window: window, MinJobs: 1, Workers: runtime.GOMAXPROCS(0)}, nil)
		if err != nil {
			return err
		}
		sharded := time.Since(t0)
		if d, _, _ := recordDigest(p.tr, res.Records); d != p.ref {
			c.fail("sharded replay produced record stream %s, sequential %s", d, p.ref)
		}
		c.attempted += int64(p.tr.Len())
		c.set("shard.replay_s", sharded.Seconds())
		c.set("shard.windows", math.Ceil(float64(p.tr.Len())/float64(window)))
		c.set("shard.speedup", p.plain.Seconds()/sharded.Seconds())
	}
	return buf.write(filepath.Join(c.outDir, "trace-"+c.workload+".json"))
}

// drive runs fn in batches until about budget has passed and returns the
// median time of one call in nanoseconds.
func drive(budget time.Duration, batch int, fn func(i int)) float64 {
	var per []float64
	i := 0
	for start := time.Now(); time.Since(start) < budget || len(per) < 3; {
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			fn(i)
			i++
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	return median(per)
}

// sink keeps the compiler from discarding a micro-drive's result.
var sink int64

// kernelDrives times the kernel's pieces in isolation at the sizes a replay
// showed: one planner round on the skyline at the median queue length, a
// FindStart on a deep skyline, an event-queue pop+push at the median running
// count, and a queue sort at the median queue length.
func kernelDrives(c *runCtx, procs, qlen, running int) {
	budget := c.driveBudget(150 * time.Millisecond)
	rng := stats.NewRNG(c.seed ^ 0x6b65726e)
	type jb struct {
		dur   int64
		procs int
	}
	// Running jobs always fit the machine, as the cluster guarantees.
	width := max(procs/(2*running), 1)
	spans := make([]cluster.Span, running)
	for i := range spans {
		spans[i] = cluster.Span{End: rng.Int63n(30000) + 1, Procs: rng.Intn(width) + 1}
	}
	queue := make([]jb, qlen)
	for i := range queue {
		queue[i] = jb{dur: rng.Int63n(20000) + 60, procs: rng.Intn(max(procs/16, 1)) + 1}
	}
	p := cluster.NewProfile(procs, 0)
	scratch := make([]cluster.Span, running)
	c.set("cluster.profile_round_us", drive(budget, 1, func(int) {
		copy(scratch, spans) // ResetSpans reorders its argument
		p.ResetSpans(procs, 0, scratch)
		mark := p.Checkpoint()
		for _, j := range queue {
			s := p.FindStart(0, j.dur, j.procs)
			_ = p.ReserveFound(s, s+j.dur, j.procs) // a full profile rejects; the round goes on, as the planner's lenient mode does
		}
		p.Rollback(mark)
	})/1e3)

	// An 8192-reservation skyline: one job per minute, each ~48 minutes long.
	deep := cluster.NewProfile(128, 0)
	nSegs := 8192
	if c.smoke {
		nSegs = 1024
	}
	for i := 0; i < nSegs; i++ {
		start := int64(i) * 60
		_ = deep.Reserve(start, start+48*60, rng.Intn(4)+1) // over-capacity rejections leave holes; fine
	}
	horizon := int64(deep.Segments()) * 60
	c.set("cluster.findstart_deep_ns", drive(budget, 256, func(i int) {
		sink += deep.FindStart((int64(i)*2654435761)%horizon, int64(i%7000)+60, i%128+1)
	}))

	var eq eventq.Queue
	clock := int64(0)
	for k := 0; k < running; k++ {
		eq.Push(eventq.Event{Time: rng.Int63n(36000) + 1, Kind: eventq.Finish})
	}
	c.set("eventq.op_ns", drive(budget, 1024, func(int) {
		e, _ := eq.Pop()
		clock = e.Time
		eq.Push(eventq.Event{Time: clock + rng.Int63n(36000) + 1, Kind: eventq.Finish})
	}))

	jobs := make([]*trace.Job, qlen)
	for i := range jobs {
		jobs[i] = &trace.Job{ID: i + 1, Submit: rng.Int63n(86400), Runtime: rng.Int63n(20000) + 1, Request: rng.Int63n(20000) + 60, Procs: rng.Intn(64) + 1}
	}
	var sorter sched.Sorter
	scores := make([]float64, qlen)
	work := make([]*trace.Job, qlen)
	c.set("sched.sort_us", drive(budget, 1, func(i int) {
		copy(work, jobs)
		sorter.Sort(work, scores, sched.WFP3{}, 86400+int64(i))
	})/1e3)
}
