package core

import (
	"fmt"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// TestFirstEpochPinned pins the learner's first epoch at the paper's 128-job
// observation: rollouts under the initial policy, their baselines and one PPO
// update. The dataset and the configuration are the train-sdsc benchmark
// workload's at one worker (benchmark/train.go's trainTrace and trainConfig),
// and the digest is the CRC32C of its epochDigest string, floats by their
// bits, so this test and that workload's "digest epoch0" line read the same
// figure. A change to the observation, the networks, the sampling or the
// update that moves any bit of the epoch's report fails here.
func TestFirstEpochPinned(t *testing.T) {
	for _, pin := range []struct {
		seed uint64
		want uint32
	}{{1, 0xbbefeb2d}, {12, 0x8b4abed7}} {
		tr := trace.SyntheticSDSCSP2(10_000, 4)
		rng := stats.NewRNG(pin.seed)
		for _, j := range tr.Jobs {
			j.Runtime = max(1, int64(float64(j.Runtime)*(0.95+0.1*rng.Float64())))
		}
		cfg := QuickTrainConfig()
		cfg.Obs.MaxObs = 128
		cfg.TrajPerEpoch, cfg.EpisodeLen = 8, 256
		cfg.PPO.PiIters, cfg.PPO.VIters = 4, 4
		cfg.Workers, cfg.Seed = 1, 1
		trainer, err := NewTrainer(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := trainer.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		s := fmt.Sprintf("%d %x %x %x %d %d %d %d %x %x %x %x|", st.Epoch,
			math.Float64bits(st.MeanBSLD), math.Float64bits(st.BaselineBSLD), math.Float64bits(st.MeanReward),
			st.Violations, st.Steps, st.Update.PiIters, st.Update.VIters,
			math.Float64bits(st.Update.KL), math.Float64bits(st.Update.Entropy),
			math.Float64bits(st.Update.PiLossLast), math.Float64bits(st.Update.VLossLast))
		if got := crc32.Checksum([]byte(s), crc32.MakeTable(crc32.Castagnoli)); got != pin.want {
			t.Errorf("seed %d: first epoch digest %08x, want %08x (%+v)", pin.seed, got, pin.want, st)
		}
	}
}
