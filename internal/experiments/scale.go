// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): Figure 1's prediction-accuracy sweep, Figure 4's training
// curves, Table 2's workload characteristics, Table 4's scheduling
// performance and Table 5's cross-trace generality matrix, plus the
// ablations called out in DESIGN.md.
package experiments

import (
	"runtime"

	"repro/internal/backfill"
	"repro/internal/core"
	"repro/internal/ppo"
	"repro/internal/sched"
)

// Scale bundles the knobs that trade fidelity for wall-clock time. The
// simulator, agent and PPO code paths are identical at every scale; only the
// iteration counts change (see DESIGN.md's substitution table).
type Scale struct {
	Name string
	// TraceJobs is the number of jobs generated per workload (paper: the
	// first 10K jobs of each trace, §4.1.2).
	TraceJobs int
	// Epochs of PPO training per model.
	Epochs int
	// TrajPerEpoch and EpisodeLen follow §4.1.1 (paper: 100 x 256).
	TrajPerEpoch int
	EpisodeLen   int
	// MaxObs is MAX_OBSV_SIZE (paper: 128).
	MaxObs int
	// PiIters/VIters are the PPO update iterations (paper: 80).
	PiIters, VIters int
	// Eval is the paper's test protocol (10 sequences of 1024 jobs, §4.3).
	Eval core.EvalConfig
	// Seed roots all randomness.
	Seed uint64
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// PerPolicyModels trains a separate RL model per base policy (the
	// paper's Table 4/5 protocol). When false, models are trained with FCFS
	// only and transferred to the other base policies — the generality the
	// paper itself reports ("the trained RL agent based on the FCFS
	// scheduler outperforms other combinations", §1) — halving training cost
	// at the reduced scales.
	PerPolicyModels bool
}

// PaperScale reproduces the paper's experimental dimensions. On 2 Xeon vCPUs
// at GOMAXPROCS 2 one model (rlbf-train -scale paper -trace sdsc-sp2) trains
// in 106 s, and Table 4's 8 models and 32 evaluation cells took 846 s.
func PaperScale() Scale {
	return Scale{
		Name:            "paper",
		TraceJobs:       10000,
		Epochs:          60,
		TrajPerEpoch:    100,
		EpisodeLen:      256,
		MaxObs:          128,
		PiIters:         80,
		VIters:          80,
		Eval:            core.DefaultEvalConfig(),
		Seed:            2023,
		PerPolicyModels: true,
	}
}

// QuickScale runs the identical experiments at a laptop-feasible size: on 2
// Xeon vCPUs at GOMAXPROCS 2 one model trains in 33 s, and -exp
// fig4,table4,table5 takes 132 s. It is calibrated so the trained agents
// reach EASY parity or better on the SDSC-SP2 surrogate (see EXPERIMENTS.md).
func QuickScale() Scale {
	return Scale{
		Name:         "quick",
		TraceJobs:    6000,
		Epochs:       35,
		TrajPerEpoch: 64,
		EpisodeLen:   256,
		MaxObs:       64,
		PiIters:      40,
		VIters:       40,
		Eval:         core.EvalConfig{Sequences: 5, SeqLen: 1024, Seed: 2023},
		Seed:         2023,
	}
}

// TinyScale is for tests and smoke runs (seconds).
func TinyScale() Scale {
	return Scale{
		Name:         "tiny",
		TraceJobs:    700,
		Epochs:       1,
		TrajPerEpoch: 4,
		EpisodeLen:   64,
		MaxObs:       16,
		PiIters:      2,
		VIters:       2,
		Eval:         core.EvalConfig{Sequences: 2, SeqLen: 128, Seed: 2023},
		Seed:         2023,
	}
}

// ByName returns a named scale (paper, quick, tiny).
func ByName(name string) (Scale, bool) {
	switch name {
	case "paper":
		return PaperScale(), true
	case "quick":
		return QuickScale(), true
	case "tiny":
		return TinyScale(), true
	}
	return Scale{}, false
}

func (s Scale) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// TrainConfig assembles the core.TrainConfig for one model. It trains under
// the eval protocol's scenario, so a model is scored under the semantics it
// learned.
func (s Scale) TrainConfig(policy sched.Policy, est backfill.Estimator) core.TrainConfig {
	cfg := core.DefaultTrainConfig()
	cfg.BasePolicy = policy
	cfg.Est = est
	cfg.Obs.MaxObs = s.MaxObs
	cfg.TrajPerEpoch = s.TrajPerEpoch
	cfg.EpisodeLen = s.EpisodeLen
	cfg.Seed = s.Seed
	cfg.Workers = s.workers()
	cfg.PPO = ppo.DefaultConfig()
	cfg.PPO.PiIters = s.PiIters
	cfg.PPO.VIters = s.VIters
	cfg.PPO.MiniBatch = 2048
	cfg.Scn = s.Eval.Scn
	return cfg
}
