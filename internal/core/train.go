package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/backfill"
	"repro/internal/pool"
	"repro/internal/ppo"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TrainConfig holds everything one training run needs (§4.1.1).
type TrainConfig struct {
	// BasePolicy is the base scheduling policy the agent backfills for
	// (FCFS in the paper's training experiments).
	BasePolicy sched.Policy
	// Est is the estimator used for reservations/violations (request time
	// unless the trace lacks user estimates).
	Est backfill.Estimator
	Obs ObsConfig
	Net NetworkSpec
	PPO ppo.Config
	// TrajPerEpoch trajectories are gathered per epoch (paper: 100), each
	// scheduling EpisodeLen consecutive jobs (paper: 256).
	TrajPerEpoch int
	EpisodeLen   int
	// ViolationPenalty is the large negative reward for delaying the head
	// job's reservation (§3.4).
	ViolationPenalty float64
	Seed             uint64
	// Workers parallelises rollouts and gradient computation
	// (default GOMAXPROCS). Rollouts do not depend on it; the PPO update's
	// per-worker sums do, in their last bits.
	Workers int
	// Scn threads the scheduling scenario (priority tiers, starvation bound)
	// into every rollout and baseline engine; the agent and the baseline's
	// EASY read it from the engine. The zero value trains on the paper's
	// classic semantics.
	Scn sched.Scenario
}

// DefaultTrainConfig returns the paper-scale settings: 100 trajectories of
// 256 jobs per epoch, 80 policy/value iterations, lr 1e-3.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		BasePolicy:       sched.FCFS{},
		Est:              backfill.RequestTime{},
		Obs:              DefaultObsConfig(),
		PPO:              ppo.DefaultConfig(),
		TrajPerEpoch:     100,
		EpisodeLen:       256,
		ViolationPenalty: -2,
		Seed:             1,
	}
}

// QuickTrainConfig returns a scaled-down configuration (smaller observation,
// fewer/shorter trajectories, fewer update iterations) that exercises the
// identical code path in seconds instead of the paper scale's minutes per
// model. Used by tests, examples and rlbf-bench's training workload; see
// DESIGN.md's substitution table.
func QuickTrainConfig() TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.Obs.MaxObs = 32
	cfg.TrajPerEpoch = 16
	cfg.EpisodeLen = 128
	cfg.PPO.PiIters = 20
	cfg.PPO.VIters = 20
	cfg.PPO.MiniBatch = 1024
	return cfg
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.BasePolicy == nil {
		c.BasePolicy = sched.FCFS{}
	}
	if c.Est == nil {
		c.Est = backfill.RequestTime{}
	}
	c.Obs = c.Obs.withDefaults()
	if c.TrajPerEpoch <= 0 {
		c.TrajPerEpoch = 100
	}
	if c.EpisodeLen <= 0 {
		c.EpisodeLen = 256
	}
	if c.ViolationPenalty > 0 {
		c.ViolationPenalty = -c.ViolationPenalty
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	c.PPO.Workers = c.Workers
	c.PPO.Seed = c.Seed + 0x9e37
	return c
}

// EpochStats reports one training epoch (one point on Figure 4's curves).
type EpochStats struct {
	Epoch int
	// MeanBSLD is the average bounded slowdown over the epoch's episodes.
	MeanBSLD float64
	// BaselineBSLD is the FCFS + SJF-ordered-EASY baseline on the same
	// episodes (the reward's reference, §3.4).
	BaselineBSLD float64
	// MeanReward is the mean terminal reward (sjf - bsld)/sjf.
	MeanReward float64
	// Violations counts reservation-delaying backfills across the epoch.
	Violations int
	// Steps is the number of recorded decisions.
	Steps int
	// Update reports the PPO optimisation statistics.
	Update ppo.UpdateStats
}

// Trainer drives RLBackfilling training on one workload.
type Trainer struct {
	cfg   TrainConfig
	trace *trace.Trace
	agent *Agent
	opt   *ppo.PPO
	epoch int

	mu       sync.Mutex
	baseline map[window]float64 // episode window -> baseline bsld
}

// NewTrainer prepares training on the given trace.
func NewTrainer(tr *trace.Trace, cfg TrainConfig) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("core: cannot train on an empty trace")
	}
	agent := NewAgent(cfg.Obs, cfg.Net, cfg.Est, cfg.Seed)
	return &Trainer{
		cfg:      cfg,
		trace:    tr,
		agent:    agent,
		opt:      ppo.New(agent.Policy, agent.Value, cfg.PPO),
		baseline: make(map[window]float64),
	}, nil
}

// Agent returns the trained (or in-training) agent.
func (t *Trainer) Agent() *Agent { return t.agent }

// Config returns the effective configuration.
func (t *Trainer) Config() TrainConfig { return t.cfg }

// RunEpoch gathers TrajPerEpoch trajectories with the current policy and
// performs one PPO update.
func (t *Trainer) RunEpoch() (EpochStats, error) {
	n := t.cfg.TrajPerEpoch
	trajs := make([]ppo.Trajectory, n)
	bslds := make([]float64, n)
	bases := make([]float64, n)
	rewards := make([]float64, n)
	violations := make([]int, n)

	err := pool.Each(n, t.cfg.Workers, func(i int) error {
		// The seed depends only on (master seed, epoch, index), so the
		// run is reproducible regardless of goroutine scheduling.
		rng := stats.NewRNG(t.cfg.Seed + uint64(t.epoch)*1000003 + uint64(i)*7919 + 17)
		var err error
		trajs[i], bslds[i], bases[i], rewards[i], violations[i], err = t.rollout(rng)
		return err
	})
	if err != nil {
		return EpochStats{}, err
	}

	st := EpochStats{Epoch: t.epoch}
	for i := 0; i < n; i++ {
		st.MeanBSLD += bslds[i]
		st.BaselineBSLD += bases[i]
		st.MeanReward += rewards[i]
		st.Violations += violations[i]
		st.Steps += len(trajs[i].Steps)
	}
	fn := float64(n)
	st.MeanBSLD /= fn
	st.BaselineBSLD /= fn
	st.MeanReward /= fn

	st.Update = t.opt.Update(trajs)
	t.epoch++
	return st, nil
}

// Train runs `epochs` epochs, invoking cb (if non-nil) after each.
func (t *Trainer) Train(epochs int, cb func(EpochStats)) ([]EpochStats, error) {
	out := make([]EpochStats, 0, epochs)
	for e := 0; e < epochs; e++ {
		st, err := t.RunEpoch()
		if err != nil {
			return out, err
		}
		out = append(out, st)
		if cb != nil {
			cb(st)
		}
	}
	return out, nil
}

// rollout samples one EpisodeLen-job sequence, schedules it with the
// sampling agent, and returns the trajectory with the terminal reward
// (sjf - bsld)/sjf applied (§3.4).
func (t *Trainer) rollout(rng *stats.RNG) (ppo.Trajectory, float64, float64, float64, int, error) {
	// The window is the rollout RNG's first draw; the sampling clone
	// draws its actions from the same RNG after it.
	w := drawWindow(t.trace, t.cfg.EpisodeLen, rng)
	seq := w.jobs(t.trace)

	base, err := t.baselineFor(w, seq)
	if err != nil {
		return ppo.Trajectory{}, 0, 0, 0, 0, err
	}

	worker := t.agent.CloneForRollout(rng, t.cfg.ViolationPenalty)
	res, err := sim.Run(seq, sim.Config{Policy: t.cfg.BasePolicy, Scenario: t.cfg.Scn, Backfiller: worker})
	if err != nil {
		return ppo.Trajectory{}, 0, 0, 0, 0, err
	}
	got := res.Summary.MeanBSLD
	reward := (base - got) / base
	traj, viol := worker.takeTrajectory(reward)
	return traj, got, base, reward, viol, nil
}

// baselineFor returns (computing and caching on first use) the reward
// baseline for the window's sequence: FCFS with SJF-ordered EASY (§3.4).
func (t *Trainer) baselineFor(w window, seq *trace.Trace) (float64, error) {
	t.mu.Lock()
	if v, ok := t.baseline[w]; ok {
		t.mu.Unlock()
		return v, nil
	}
	t.mu.Unlock()

	res, err := sim.Run(seq.Clone(), sim.Config{
		Policy:     sched.FCFS{},
		Scenario:   t.cfg.Scn,
		Backfiller: &backfill.EASY{Est: t.cfg.Est, Order: backfill.SJFOrder},
	})
	if err != nil {
		return 0, err
	}
	v := res.Summary.MeanBSLD
	t.mu.Lock()
	t.baseline[w] = v
	t.mu.Unlock()
	return v, nil
}
