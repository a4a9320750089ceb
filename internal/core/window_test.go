package core

import (
	"testing"

	"repro/internal/backfill"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestWindowPins pins the windows training and evaluation replay. The eval
// and training cases read them through EvaluateStrategy's per-sequence
// results and the epoch's baseline, which every window feeds.
func TestWindowPins(t *testing.T) {
	tr := trace.SyntheticSDSCSP2(6000, 2024)

	t.Run("eval", func(t *testing.T) {
		// QuickScale's protocol; ROADMAP's horizon table uses the first four
		// windows. The starts depend only on the trace length.
		cfg := EvalConfig{Sequences: 5, SeqLen: 1024, Seed: 2023}
		want := []int{2248, 2250, 1346, 4588, 3985}
		_, per, err := EvaluateStrategy(tr, sched.FCFS{}, backfill.NewEASY(backfill.RequestTime{}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, start := range want {
			res, err := sim.Run(trace.Slice(tr, start, cfg.SeqLen),
				sim.Config{Policy: sched.FCFS{}, Backfiller: backfill.NewEASY(backfill.RequestTime{})})
			if err != nil {
				t.Fatal(err)
			}
			if per[i] != res.Summary.MeanBSLD {
				t.Fatalf("sequence %d: bsld %v, the window at %d gives %v", i, per[i], start, res.Summary.MeanBSLD)
			}
		}
	})

	t.Run("training", func(t *testing.T) {
		want := []int{3512, 2635, 3635, 5, 4801, 5136, 5529, 2775, 4809, 1395, 3060, 1780, 1075, 4686, 381, 5052}
		trainer, err := NewTrainer(tr, QuickTrainConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := trainer.Config()
		if cfg.Seed != 1 || cfg.TrajPerEpoch != len(want) {
			t.Fatalf("QuickTrainConfig seed %d, %d rollouts; the pins assume seed 1 and %d", cfg.Seed, cfg.TrajPerEpoch, len(want))
		}
		st, err := trainer.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		var base float64
		for _, start := range want {
			res, err := sim.Run(trace.Slice(tr, start, cfg.EpisodeLen), sim.Config{
				Policy:     sched.FCFS{},
				Backfiller: &backfill.EASY{Est: cfg.Est, Order: backfill.SJFOrder},
			})
			if err != nil {
				t.Fatal(err)
			}
			base += res.Summary.MeanBSLD
		}
		if base /= float64(len(want)); st.BaselineBSLD != base {
			t.Fatalf("epoch baseline %v, the pinned windows give %v", st.BaselineBSLD, base)
		}
	})

	t.Run("short trace", func(t *testing.T) {
		short := trace.Slice(tr, 0, 100)
		for _, n := range []int{100, 1024} {
			rng := stats.NewRNG(2023)
			w := drawWindow(short, n, rng)
			if w.start != 0 || w.jobs(short).Len() != short.Len() {
				t.Fatalf("n=%d: window %+v covers %d of %d jobs", n, w, w.jobs(short).Len(), short.Len())
			}
			if got, fresh := rng.Uint64(), stats.NewRNG(2023).Uint64(); got != fresh {
				t.Fatalf("n=%d: the draw consumed the RNG", n)
			}
		}
	})
}
