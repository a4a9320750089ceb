package core

import (
	"slices"

	"repro/internal/backfill"
	"repro/internal/nn"
	"repro/internal/ppo"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Agent is the RLBackfilling decision maker. It implements
// backfill.Backfiller: at every backfill opportunity it repeatedly picks one
// fitting waiting job (or skip) from the policy network's masked softmax
// until it skips or no candidate fits (§3.4 "the actions are simply the
// selected jobs for backfilling").
//
// During evaluation the most probable action is taken (§3.3.1); during
// training (when a recorder is attached) actions are sampled and every
// decision is logged as a PPO step. A large negative reward is credited when
// a backfill delays the head job's estimated reservation (§3.4).
type Agent struct {
	Policy *nn.MLP // kernel network: JobFeatures -> ... -> 1
	// Value is the critic (FlatDim -> ... -> 1). The agent never runs it:
	// ppo.Update scores the recorded steps itself.
	Value *nn.MLP
	Obs   ObsConfig
	// Est provides the runtime estimates used for reservations, the safe
	// flag, and violation detection. RLBackfilling itself does not need
	// accurate predictions; the default is the user request time.
	Est backfill.Estimator

	// rollout state (nil outside training)
	rec *recorder

	// pBatch scores all of a decision's candidate rows with one batched
	// kernel-network forward (one GEMM per layer) instead of a MulVec chain
	// per row.
	pBatch *nn.BatchCache
	scores []float64
	probs  []float64
	gather []int
	// obs and remaining are reused across decisions so the per-decision
	// encode allocates nothing (BuildObservationInto).
	obs       *Observation
	remaining []*trace.Job
	// res is the reservation scratch: the agent recomputes the head job's
	// reservation twice per decision, on the simulator's hottest path.
	res backfill.ReservationScratch
}

type recorder struct {
	rng              *stats.RNG
	steps            []ppo.Step
	violations       int
	violationPenalty float64
}

// record appends the decision to the episode as ppo.Step: the observation's
// rows and mask, cloned, with Live placing them in the critic's input (the
// skip slot is its last row, every row between is zero) and the action
// unchanged. Nothing the step allocates grows with MaxObs. V(s) is not
// recorded: ppo.Update scores every step with the critic, whose weights are
// still the ones the step was taken under.
func (r *recorder) record(obs *Observation, action int, logP float64) *ppo.Step {
	r.steps = append(r.steps, ppo.Step{
		FlatObs: slices.Clone(obs.Cells),
		Live:    nn.Live{Head: obs.Skip * JobFeatures, Tail: JobFeatures},
		Mask:    slices.Clone(obs.Mask),
		Action:  action,
		LogP:    logP,
	})
	return &r.steps[len(r.steps)-1]
}

// NetworkSpec controls the network shapes; zero values give the paper's
// architecture (§3.3: kernel 32-16-8, 3-layer value MLP).
type NetworkSpec struct {
	KernelHidden []int
	ValueHidden  []int
	Act          nn.Activation
}

func (s NetworkSpec) withDefaults() NetworkSpec {
	if len(s.KernelHidden) == 0 {
		s.KernelHidden = []int{32, 16, 8}
	}
	if len(s.ValueHidden) == 0 {
		s.ValueHidden = []int{64, 32}
	}
	if s.Act == "" {
		s.Act = nn.ReLU
	}
	return s
}

// NewAgent creates an untrained agent with freshly initialised networks.
func NewAgent(obs ObsConfig, spec NetworkSpec, est backfill.Estimator, seed uint64) *Agent {
	obs = obs.withDefaults()
	spec = spec.withDefaults()
	rng := stats.NewRNG(seed)
	pSizes := append([]int{JobFeatures}, spec.KernelHidden...)
	pSizes = append(pSizes, 1)
	vSizes := append([]int{obs.FlatDim()}, spec.ValueHidden...)
	vSizes = append(vSizes, 1)
	if est == nil {
		est = backfill.RequestTime{}
	}
	a := &Agent{
		Policy: nn.NewMLP(pSizes, spec.Act, rng),
		Value:  nn.NewMLP(vSizes, spec.Act, rng),
		Obs:    obs,
		Est:    est,
	}
	a.initBuffers()
	return a
}

func (a *Agent) initBuffers() {
	rows := a.Obs.Rows()
	a.pBatch = nn.NewBatchCache(a.Policy, rows)
	a.scores = make([]float64, rows)
	a.probs = make([]float64, rows)
	a.gather = make([]int, rows)
	a.obs = NewObservation(a.Obs)
}

// CloneForRollout returns an agent sharing the (read-only) networks but with
// its own caches and recorder, so parallel rollout workers do not race. A
// clone's scratch is sized by the decision (the policy's rows, not the
// critic's input), so one clone per episode costs ~150 KB at MaxObs 128.
func (a *Agent) CloneForRollout(rng *stats.RNG, violationPenalty float64) *Agent {
	c := &Agent{Policy: a.Policy, Value: a.Value, Obs: a.Obs, Est: a.Est}
	c.initBuffers()
	c.rec = &recorder{rng: rng, violationPenalty: violationPenalty}
	return c
}

// Name implements backfill.Backfiller.
func (a *Agent) Name() string { return "RLBF" }

// Fresh implements backfill.Cloneable: a greedy evaluation clone sharing the
// read-only networks with its own scratch, so parallel eval sequences never
// race.
func (a *Agent) Fresh() backfill.Backfiller {
	c := &Agent{Policy: a.Policy, Value: a.Value, Obs: a.Obs, Est: a.Est}
	c.initBuffers()
	return c
}

// Backfill implements backfill.Backfiller.
func (a *Agent) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	a.remaining = append(a.remaining[:0], queue...)
	remaining := a.remaining
	for {
		res := a.res.Compute(st, head, a.Est)
		obs := BuildObservationInto(a.Obs, st, head, remaining, a.Est, res, a.obs)
		if obs.Selectable == 0 {
			return // nothing can start now; no decision to make
		}
		probs := a.distribution(obs)

		var action int
		var step *ppo.Step
		if a.rec != nil {
			action = nn.SampleCategorical(probs, a.rec.rng)
			step = a.rec.record(obs, action, nn.LogProb(probs, action))
		} else {
			action = nn.Argmax(probs)
		}

		if action == obs.Skip {
			return
		}
		job := obs.Jobs[action]
		st.StartJob(job)
		// Violation check (§3.4), for the reward only: did this action delay
		// the head job's estimated reservation?
		if a.rec != nil {
			if after := a.res.Compute(st, head, a.Est); after.Shadow > res.Shadow {
				a.rec.violations++
				step.Reward += a.rec.violationPenalty
			}
		}
		// drop the started job from the local queue view
		for i, j := range remaining {
			if j == job {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
		if len(remaining) == 0 {
			return
		}
	}
}

// distribution scores every selectable candidate row with one batched
// kernel-network forward and returns the masked-softmax action distribution
// over the observation's rows (a view into the agent's scratch; valid until
// the next call). Scores are bit-identical to the per-row Forward loop this
// replaces (nn.TestBatchedKernelDifferential), and the call is
// allocation-free.
func (a *Agent) distribution(obs *Observation) []float64 {
	n := len(obs.Mask)
	probs, _ := a.Policy.ScoreMasked(obs.Cells, obs.Mask, a.pBatch, a.gather, a.scores[:n], a.probs[:n])
	return probs
}

// takeTrajectory finishes a training episode: the terminal reward is added
// to the last step and the recorded steps are returned (empty when no
// backfill decision occurred).
func (a *Agent) takeTrajectory(terminalReward float64) (ppo.Trajectory, int) {
	steps := a.rec.steps
	if len(steps) > 0 {
		steps[len(steps)-1].Reward += terminalReward
	}
	v := a.rec.violations
	a.rec.steps = nil
	a.rec.violations = 0
	return ppo.Trajectory{Steps: steps}, v
}
