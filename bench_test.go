// Package repro is the module root. Its benchmarks time only what no
// rlbf-bench workload or per-layer metric times.
package repro

import (
	"testing"

	"repro/internal/backfill"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lublin"
	"repro/internal/nn"
	"repro/internal/ppo"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// BenchmarkSimulatorEASYHuge replays one 25,000-job Lublin-Huge trace on 4096
// nodes under FCFS + EASY: the shape of rlbf-bench's replay-easy workload,
// where ~120 jobs run and ~200 wait at once. replay-easy times the classic
// policy-order scan; "sjf" decorates and sorts the candidates that fit every
// round, and "aging" adds one reservation per starving job per round on top
// of the head's.
func BenchmarkSimulatorEASYHuge(b *testing.B) {
	tr := experiments.HugeTrace(lublin.Huge(0, 0, 0), 25_000, 1)
	for _, c := range []struct {
		name string
		scn  sched.Scenario
		bf   backfill.EASY
	}{
		{"sjf", sched.Scenario{}, backfill.EASY{Est: backfill.RequestTime{}, Order: backfill.SJFOrder}},
		{"aging", sched.Scenario{StarvationBound: 4}, backfill.EASY{Est: backfill.RequestTime{}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(tr, sim.Config{Policy: sched.FCFS{}, Scenario: c.scn, Backfiller: c.bf.Fresh()}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorPriorityMem measures the enriched-scenario replay cost:
// a 2,000-job SDSC-SP2 replay under FCFS + EASY with per-job memory demands,
// priority tiers and the aging starvation bound all active, so it pays for
// vector cluster accounting, scenario queue order, wake events and
// starving-job protections.
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
			Backfiller: backfill.NewEASY(backfill.RequestTime{}),
		}); err != nil {
			b.Fatal(err)
		}
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
