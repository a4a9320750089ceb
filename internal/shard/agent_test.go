package shard

import (
	"testing"

	"repro/internal/backfill"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// trainTinyAgent trains the RL backfiller for two quick epochs on a small
// synthetic trace — enough PPO updates that the greedy policy is a real
// (non-initialisation) network, cheap enough for the unit suite.
func trainTinyAgent(t *testing.T) *core.Agent {
	t.Helper()
	cfg := core.QuickTrainConfig()
	cfg.Obs.MaxObs = 16
	cfg.TrajPerEpoch = 4
	cfg.EpisodeLen = 64
	cfg.PPO.PiIters = 3
	cfg.PPO.VIters = 3
	cfg.Seed = 23
	cfg.Workers = 2
	trainer, err := core.NewTrainer(trace.SyntheticSDSCSP2(400, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.Train(2, nil); err != nil {
		t.Fatal(err)
	}
	return trainer.Agent()
}

// TestShardDifferentialAgent extends TestShardDifferential's guarantee to
// the RL-agent replay path, end to end: a tiny in-test-trained greedy agent
// (cloned per window via core.Agent.Fresh) replayed through drain-aware
// windows is byte-identical — records and summary — to its sequential
// replay. The greedy agent is deterministic per state, so the warm-up flank
// rebuilds exactly the backlog the sequential replay saw.
func TestShardDifferentialAgent(t *testing.T) {
	agent := trainTinyAgent(t)
	tr := trace.ScaleLoad(trace.SyntheticSDSCSP2(1500, 1), 0.5)
	mk := func() backfill.Backfiller { return agent.Fresh() }

	seq := sequentialResult(t, tr, mk)
	sh := shardedResult(t, tr, mk, Config{Window: 375, MinJobs: 1})
	if bad, ok := recordsEqual(seq.Records, sh.Records); !ok {
		t.Fatalf("RLBF: %d of %d records differ between sequential and sharded replay",
			bad, len(seq.Records))
	}
	if seq.Summary != sh.Summary {
		t.Fatalf("RLBF: summaries differ: sequential %+v, sharded %+v", seq.Summary, sh.Summary)
	}
}

// TestShardAgentDeterministicAcrossWorkers pins that the agent windows — each
// holding its own Fresh clone and batched scratch — stitch identically at any
// worker count.
func TestShardAgentDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("agent training skipped in -short mode")
	}
	agent := trainTinyAgent(t)
	tr := trace.ScaleLoad(trace.SyntheticSDSCSP2(1200, 1), 0.5)
	mk := func() backfill.Backfiller { return agent.Fresh() }
	cfg := Config{Window: 300, MinJobs: 1}
	var ref *sim.Result
	for _, w := range []int{1, 4} {
		cfg.Workers = w
		res := shardedResult(t, tr, mk, cfg)
		if ref == nil {
			ref = res
			continue
		}
		if bad, ok := recordsEqual(ref.Records, res.Records); !ok {
			t.Fatalf("Workers=%d: %d records differ from Workers=1", w, bad)
		}
		if ref.Summary != res.Summary {
			t.Fatalf("Workers=%d: summary differs from Workers=1", w)
		}
	}
}
