// Package repro holds the benchmark harness that regenerates every table and
// figure of the paper (see DESIGN.md's per-experiment index). Each benchmark
// runs the corresponding experiment once per iteration at the scale selected
// by RLBF_BENCH_SCALE (tiny by default so `go test -bench=.` finishes in
// minutes; set RLBF_BENCH_SCALE=quick or =paper to approach the paper's
// dimensions — see EXPERIMENTS.md for recorded outputs).
package repro

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"repro/internal/backfill"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/experiments"
	"repro/internal/lublin"
	"repro/internal/nn"
	"repro/internal/ppo"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func benchScale(b *testing.B) experiments.Scale {
	b.Helper()
	name := os.Getenv("RLBF_BENCH_SCALE")
	if name == "" {
		name = "tiny"
	}
	sc, ok := experiments.ByName(name)
	if !ok {
		b.Fatalf("unknown RLBF_BENCH_SCALE %q", name)
	}
	return sc
}

// BenchmarkFigure1 regenerates Figure 1 (bsld vs prediction accuracy for
// FCFS/SJF/WFP3/F1 with EASY backfilling on SDSC-SP2).
func BenchmarkFigure1(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Figure1(sc, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (workload characteristics of the four
// traces, generated vs the paper's values).
func BenchmarkTable2(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		tbl := experiments.Table2(sc)
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4 (RLBackfilling training curves on
// the four traces with the FCFS base policy).
func BenchmarkFigure4(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Figure4(sc, experiments.NewZoo(), nil, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkTable4 regenerates Table 4 (bsld of FCFS/SJF x {EASY, EASY-AR,
// RLBF} plus WFP3/F1 references on the four traces).
func BenchmarkTable4(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Table4(sc, experiments.NewZoo(), nil, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkTable5 regenerates Table 5 (cross-trace generality matrix).
func BenchmarkTable5(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Table5(sc, experiments.NewZoo(), nil, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkAblationSkip measures the skip-action design choice.
func BenchmarkAblationSkip(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationSkip(sc, nil, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkAblationPenalty sweeps the reservation-violation penalty.
func BenchmarkAblationPenalty(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationPenalty(sc, nil, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkAblationObs sweeps MAX_OBSV_SIZE.
func BenchmarkAblationObs(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationObs(sc, nil, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkConservative compares no backfilling, EASY and conservative
// backfilling (related-work baseline).
func BenchmarkConservative(b *testing.B) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.ConservativeCompare(sc, nil, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkRunManyTiny measures the experiments layer end to end: the full
// `rlbf-exp -exp all` set at tiny scale, sequentially (Workers=1) vs fanned
// across the shared worker pool (Workers=GOMAXPROCS). The pooled/seq ratio
// is the cell runner's wall-clock win; outputs are byte-identical either way
// (TestRunManyDeterministicAcrossWorkers).
func BenchmarkRunManyTiny(b *testing.B) {
	sc, ok := experiments.ByName("tiny")
	if !ok {
		b.Fatal("tiny scale missing")
	}
	run := func(b *testing.B, workers int) {
		b.Helper()
		sc := sc
		sc.Workers = workers
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunMany([]string{"all"}, sc, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("seq", func(b *testing.B) { run(b, 1) })
	b.Run("pooled", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0)) })
}

// ---- micro-benchmarks for the substrates ----

// BenchmarkSimulatorEASY measures raw simulator throughput: one 2000-job
// SDSC-SP2 replay with FCFS+EASY per iteration.
func BenchmarkSimulatorEASY(b *testing.B) {
	tr := trace.SyntheticSDSCSP2(2000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr.Clone(), sim.Config{
			Policy:     sched.FCFS{},
			Backfiller: backfill.NewEASY(backfill.RequestTime{}),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorEASYHuge replays one 25,000-job Lublin-Huge trace on 4096
// nodes under FCFS + EASY: the shape of the repo benchmark's replay-easy
// unit, where ~120 jobs run and ~200 wait at once, so what a round costs per
// queued and per running job shows (BenchmarkSimulatorEASY's 128-processor
// surrogate keeps both too small for that). "rt" is the classic policy-order
// scan; "sjf" decorates and sorts the candidates that fit every round;
// "aging" adds one reservation per starving job per round on top of the
// head's.
func BenchmarkSimulatorEASYHuge(b *testing.B) {
	tr := experiments.HugeTrace(lublin.Huge(0, 0, 0), 25_000, 1)
	aging := sched.Scenario{StarvationBound: 4}
	for _, c := range []struct {
		name string
		scn  sched.Scenario
		mk   func() backfill.Backfiller
	}{
		{"rt", sched.Scenario{}, func() backfill.Backfiller { return backfill.NewEASY(backfill.RequestTime{}) }},
		{"sjf", sched.Scenario{}, func() backfill.Backfiller {
			return &backfill.EASY{Est: backfill.RequestTime{}, Order: backfill.SJFOrder}
		}},
		{"aging", aging, func() backfill.Backfiller { return &backfill.EASY{Est: backfill.RequestTime{}, Scn: aging} }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(tr, sim.Config{Policy: sched.FCFS{}, Scenario: c.scn, Backfiller: c.mk()}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorPriorityMem measures the enriched-scenario replay cost:
// the EASY workload with per-job memory demands, priority tiers, and the
// aging starvation bound all active. The delta against BenchmarkSimulatorEASY
// is the full price of the scenario semantics (vector cluster accounting,
// scenario queue order, wake events, starving-job protections).
func BenchmarkSimulatorPriorityMem(b *testing.B) {
	tr, err := trace.Enrich(trace.SyntheticSDSCSP2(2000, 1),
		trace.EnrichSpec{MemDist: trace.MemDistProp, PriorityTiers: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	scn := sched.Scenario{Priorities: true, StarvationBound: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr.Clone(), sim.Config{
			Policy:     sched.FCFS{},
			Scenario:   scn,
			Backfiller: &backfill.EASY{Est: backfill.RequestTime{}, Scn: scn},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorConservative measures the profile-based conservative
// backfilling cost on the same workload.
func BenchmarkSimulatorConservative(b *testing.B) {
	tr := trace.SyntheticSDSCSP2(500, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr.Clone(), sim.Config{
			Policy:     sched.FCFS{},
			Backfiller: backfill.NewConservative(backfill.RequestTime{}),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileReserve measures one conservative-style profile round on
// the skyline: bulk-build from 48 running spans, checkpoint, place
// 48 queued jobs via FindStart+ReserveFound, roll back. This is the
// primitive conservative backfilling executes once per candidate per
// scheduling round.
func BenchmarkProfileReserve(b *testing.B) {
	rng := stats.NewRNG(3)
	const nRun, nQueue = 32, 48
	spans := make([]cluster.Span, nRun)
	type jb struct {
		dur   int64
		procs int
	}
	queue := make([]jb, nQueue)
	for i := range spans {
		// Running jobs always fit the machine (32 x <=4 <= 128 procs), as the
		// cluster guarantees in real replays — the bulk build must never hit
		// the over-capacity fallback here.
		spans[i] = cluster.Span{End: rng.Int63n(30000) + 1, Procs: rng.Intn(4) + 1}
	}
	for i := range queue {
		queue[i] = jb{dur: rng.Int63n(20000) + 60, procs: rng.Intn(16) + 1}
	}
	p := cluster.NewProfile(128, 0)
	scratch := make([]cluster.Span, nRun)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, spans) // ResetSpans reorders its argument
		p.ResetSpans(128, 0, scratch)
		mark := p.Checkpoint()
		for _, j := range queue {
			s := p.FindStart(0, j.dur, j.procs)
			if err := p.ReserveFound(s, s+j.dur, j.procs); err != nil {
				b.Fatal(err)
			}
		}
		p.Rollback(mark)
	}
}

// BenchmarkProfileFindStart measures the monotonic-candidate walk on a
// loaded skyline (~64 reservations deep), across small and machine-wide
// requests.
func BenchmarkProfileFindStart(b *testing.B) {
	rng := stats.NewRNG(9)
	p := cluster.NewProfile(128, 0)
	for i := 0; i < 64; i++ {
		procs := rng.Intn(24) + 1
		dur := rng.Int63n(5000) + 60
		s := p.FindStart(rng.Int63n(40000), dur, procs)
		if err := p.Reserve(s, s+dur, procs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		procs := i%96 + 1
		_ = p.FindStart(int64(i%50000), int64(i%7000)+60, procs)
	}
}

// deepLoadedProfile builds a skyline of roughly nSegs segments shaped like a
// deep conservative backlog: a staircase of overlapping reservations keeps
// the free count low and jittery across the whole horizon, so machine-scale
// requests must pass thousands of blocking segments before the tail clears.
func deepLoadedProfile(nSegs, total int) *cluster.Profile {
	p := cluster.NewProfile(total, 0)
	rng := stats.NewRNG(17)
	const step = 60    // one new job every step seconds
	const overlap = 48 // each job spans ~overlap steps
	for i := 0; i < nSegs; i++ {
		procs := rng.Intn(4) + 1 // ~overlap*2.5 of total held at any instant
		start := int64(i) * step
		_ = p.Reserve(start, start+overlap*step, procs) // over-capacity rejections leave holes; fine
	}
	return p
}

// BenchmarkProfileFindStartDeep measures the monotonic FindStart walk on
// deep backlogs (1K/8K/64K segments). The query mix spans the proc range, so
// half the FindStarts are machine-scale requests that must cross the whole
// loaded region — the regime a conservative replay of a million-job trace
// lives in. Allocs are reported so the 0 allocs/op guarantee shows in the
// artifact.
func BenchmarkProfileFindStartDeep(b *testing.B) {
	const total = 128
	for _, depth := range []int{1024, 8192, 65536} {
		b.Run(fmt.Sprintf("segs=%d", depth), func(b *testing.B) {
			p := deepLoadedProfile(depth, total)
			if got := p.Segments(); got < depth/2 {
				b.Fatalf("profile too shallow: %d segments, want >= %d", got, depth/2)
			}
			horizon := int64(p.Segments()) * 60
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				procs := i%total + 1
				after := (int64(i) * 2654435761) % horizon
				_ = p.FindStart(after, int64(i%7000)+60, procs)
			}
		})
	}
}

// BenchmarkQueueMaintenanceStatic isolates waiting-queue upkeep for a
// static-score policy: FCFS with no backfiller exercises only binary
// insertion, binary-search removal and the running-set bookkeeping.
func BenchmarkQueueMaintenanceStatic(b *testing.B) {
	tr := trace.SyntheticSDSCSP2(2000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr.Clone(), sim.Config{Policy: sched.FCFS{}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueueMaintenanceTimeVarying is the same workload under WFP3,
// which falls back to one decorated re-sort per event.
func BenchmarkQueueMaintenanceTimeVarying(b *testing.B) {
	tr := trace.SyntheticSDSCSP2(2000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr.Clone(), sim.Config{Policy: sched.WFP3{}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRunning measures State.Running with 512 executing jobs —
// the query a backfiller's reservation or plan rebuild issues against the
// engine. It returns the engine's running heap as is, so it costs the same
// at any width.
func BenchmarkEngineRunning(b *testing.B) {
	const n = 512
	tr := &trace.Trace{Name: "wide", Procs: n}
	for i := 0; i < n; i++ {
		tr.Jobs = append(tr.Jobs, &trace.Job{ID: i + 1, Submit: 0, Runtime: 1 << 30, Request: 1 << 30, Procs: 1})
	}
	e, err := sim.NewEngine(tr, sim.Config{Policy: sched.FCFS{}})
	if err != nil {
		b.Fatal(err)
	}
	e.Step() // all jobs start at t=0
	if len(e.Running()) != n {
		b.Fatalf("%d running, want %d", len(e.Running()), n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs := e.Running(); len(rs) != n {
			b.Fatal("running set changed")
		}
	}
}

// BenchmarkEventQueue times eventq.Queue on a completion-queue pattern: a
// pending set of `hold` Finish events, each pop of the earliest followed by a
// push at the advancing clock plus a spread-out runtime, interleaved with
// peek-before-pop probes. The engine no longer queues completions here (its
// running heap holds them; the queue carries only an aging scenario's Wake
// ticks), so this times the structure, not the engine's replay path. The
// hold sizes bracket the running-set sizes of the paper's traces. The
// sub-benchmarks keep the heap-N names the binary heap carried while a
// calendar queue ran beside it, so older bench.txt records stay comparable.
func BenchmarkEventQueue(b *testing.B) {
	const pushes = 4096
	rng := stats.NewRNG(11)
	times := make([]int64, pushes)
	for i := range times {
		times[i] = rng.Int63n(36000) + 1 // runtimes up to ~10h
	}
	for _, hold := range []int{16, 256} {
		b.Run(fmt.Sprintf("heap-%d", hold), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var q eventq.Queue
				clock := int64(0)
				for k := 0; k < hold; k++ {
					q.Push(eventq.Event{Time: clock + times[k], Kind: eventq.Finish})
				}
				for k := hold; k < pushes; k++ {
					e, _ := q.Peek()
					e, _ = q.Pop()
					clock = e.Time
					q.Push(eventq.Event{Time: clock + times[k], Kind: eventq.Finish})
				}
				for q.Len() > 0 {
					q.Pop()
				}
			}
		})
	}
}

// BenchmarkKernelForward measures one kernel-network score (the inner loop
// of every RL decision).
func BenchmarkKernelForward(b *testing.B) {
	rng := stats.NewRNG(1)
	m := nn.NewMLP([]int{core.JobFeatures, 32, 16, 8, 1}, nn.ReLU, rng)
	cache := nn.NewBatchCache(m, 1)
	x := cache.Input(1)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.ForwardBatch(x, cache)
	}
}

// BenchmarkPPOUpdate measures one PPO update over a synthetic batch of 512
// decisions: 16-slot observations (the historical number), and the paper's
// 129x13 observation with 8 rows occupied (the first 7 and the skip slot,
// about what a train-sdsc decision holds) as the compact step core records
// (occ8) and as the whole zero-padded observation (dense). occ8 over dense is
// what skipping observation padding saves, in the critic's kernels and in
// loading its batches.
func BenchmarkPPOUpdate(b *testing.B) {
	const feat = core.JobFeatures
	for _, bc := range []struct {
		name       string
		slots, occ int // occ leading rows are filled, and the last (skip) slot
		live       bool
	}{
		{"16x13", 16, 16, false},
		{"129x13/occ8", 129, 7, true},
		{"129x13/dense", 129, 7, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := stats.NewRNG(2)
			slots := bc.slots
			policy := nn.NewMLP([]int{feat, 32, 16, 8, 1}, nn.ReLU, rng)
			value := nn.NewMLP([]int{feat * slots, 64, 32, 1}, nn.ReLU, rng)
			cfg := ppo.DefaultConfig()
			cfg.PiIters = 5
			cfg.VIters = 5
			cfg.MiniBatch = 0
			p := ppo.New(policy, value, cfg)

			mkTraj := func() ppo.Trajectory {
				steps := make([]ppo.Step, 8)
				for si := range steps {
					mask := make([]bool, slots)
					flat := make([]float64, feat*slots)
					for i := 0; i < slots; i++ {
						if i < bc.occ || i == slots-1 {
							for k := 0; k < feat; k++ {
								flat[i*feat+k] = rng.Float64()
							}
							mask[i] = true
						}
					}
					steps[si] = ppo.Step{FlatObs: flat, Mask: mask, Action: rng.Intn(bc.occ),
						LogP: -2.77, Value: 0, Reward: rng.Float64()}
					if bc.live { // the compact form core records: occupied rows, then the skip row
						head := bc.occ * feat
						steps[si].FlatObs = append(flat[:head:head], flat[(slots-1)*feat:]...)
						steps[si].Mask = append(mask[:bc.occ:bc.occ], true)
						steps[si].Live = nn.Live{Head: head, Tail: feat}
					}
				}
				return ppo.Trajectory{Steps: steps}
			}
			trajs := make([]ppo.Trajectory, 64)
			for i := range trajs {
				trajs[i] = mkTraj()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Update(trajs)
			}
		})
	}
}

// BenchmarkTrainEpoch measures one full PPO training epoch — rollouts plus
// policy/value update — at the paper's observation shape (MaxObs 128) on a
// small SDSC-SP2 surrogate. A fresh trainer is built per iteration (outside
// the timer) so every iteration does identical work: same seed, same epoch-0
// episode starts, same decision count. This is the end-to-end number the
// batched GEMM kernel targets (EXPERIMENTS.md records before/after).
func BenchmarkTrainEpoch(b *testing.B) {
	tr := trace.SyntheticSDSCSP2(600, 4)
	cfg := core.QuickTrainConfig()
	cfg.Obs.MaxObs = 128
	cfg.TrajPerEpoch = 4
	cfg.EpisodeLen = 100
	cfg.PPO.PiIters = 10
	cfg.PPO.VIters = 10
	cfg.PPO.MiniBatch = 0
	cfg.Seed = 17
	cfg.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		trainer, err := core.NewTrainer(tr.Clone(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := trainer.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLublinGenerate measures workload-model throughput (1000 jobs per
// iteration).
func BenchmarkLublinGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = lublin.Generate1(1000, uint64(i))
	}
}

// BenchmarkSWFRoundTrip measures SWF serialisation of a 1000-job trace.
func BenchmarkSWFRoundTrip(b *testing.B) {
	tr := trace.SyntheticHPC2N(1000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb writerCounter
		if err := trace.WriteSWF(&sb, tr); err != nil {
			b.Fatal(err)
		}
	}
}

type writerCounter struct{ n int }

func (w *writerCounter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
