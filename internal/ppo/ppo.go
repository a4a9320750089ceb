// Package ppo implements Proximal Policy Optimization (Schulman et al. 2017)
// in the style of OpenAI Spinning Up — the algorithm the paper trains
// RLBackfilling with (§2.2.1, §4.1.1): clipped surrogate objective,
// GAE-lambda advantages, separate policy ("actor") and value ("critic")
// networks updated with Adam for a fixed number of iterations per epoch with
// KL-divergence early stopping.
//
// The policy here is the paper's kernel network (§3.3.1): a small MLP is
// applied to each candidate's feature vector to produce one score per
// candidate, and a masked softmax over the scores yields the action
// distribution. The value network (§3.3.2) is an ordinary MLP over the
// flattened observation.
package ppo

import (
	"math"

	"repro/internal/nn"
	"repro/internal/pool"
	"repro/internal/stats"
)

// Step is one decision recorded during a rollout. It keeps only the rows the
// observation occupies, so a step costs what the decision saw, not the value
// network's full input width.
type Step struct {
	// FlatObs holds the step's rows back to back, one feature vector each
	// (the kernel network's input width): row i is what the kernel network
	// scores for action i.
	FlatObs []float64
	// Live places FlatObs in the value network's input: FlatObs is that
	// input's first Live.Head cells followed by its last Live.Tail, and every
	// cell between them is zero (core's observation builder knows how many
	// rows it filled; the skip slot is the tail). The zero value means FlatObs
	// is the whole input.
	Live nn.Live
	// Mask marks the selectable rows of FlatObs.
	Mask []bool
	// Action is the sampled row of FlatObs.
	Action int
	// LogP is log pi(a|s) at collection time. V(s) is not recorded: Update
	// scores every step with the critic itself, under the weights the step
	// was collected with.
	LogP float64
	// Reward is the immediate reward credited to this step.
	Reward float64

	// Obs is read by nothing: the rows are FlatObs's. The field stays only
	// because benchmark/train.go names it in a literal and that directory is
	// frozen to changes that claim a gain; the next benchmark change drops it.
	Obs [][]float64
}

// Trajectory is a full episode of steps.
type Trajectory struct {
	Steps []Step
}

// The paper's fixed PPO settings (§4.1.1, Spinning Up's defaults): the
// surrogate's clip ratio and the policy's and critic's Adam learning rates.
// Returns are undiscounted (gamma 1): an episode's reward is terminal (§3.4).
const (
	clipRatio = 0.2
	piLR      = 1e-3
	vLR       = 1e-3
)

// Config holds the PPO hyper-parameters that vary. Defaults (§4.1.1 and
// Spinning Up): 80 policy and value iterations, target KL 0.01, lambda 0.97.
type Config struct {
	PiIters     int
	VIters      int
	TargetKL    float64
	Lambda      float64
	EntropyCoef float64
	// MiniBatch limits the samples used per update iteration (0 = full
	// batch, as in Spinning Up).
	MiniBatch int
	// Workers is the gradient/rollout parallelism (<=1 = serial).
	Workers int
	Seed    uint64
}

// DefaultConfig returns the paper/Spinning Up defaults.
func DefaultConfig() Config {
	return Config{
		PiIters:     80,
		VIters:      80,
		TargetKL:    0.01,
		Lambda:      0.97,
		EntropyCoef: 0.01,
		MiniBatch:   4096,
		Workers:     1,
		Seed:        1,
	}
}

// PPO holds the actor-critic networks and their optimisers. An instance is
// not safe for concurrent Update calls: the per-worker scratch below is
// reused across iterations (that reuse is what removes the per-iteration
// allocation churn from the update hot path).
type PPO struct {
	Policy *nn.MLP // kernel network: featDim -> ... -> 1
	Value  *nn.MLP // value network: flatDim -> ... -> 1
	Cfg    Config

	piOpt *nn.Adam
	vOpt  *nn.Adam
	rng   *stats.RNG

	// persistent update scratch, grown on demand; worker 0's gradients are
	// also the reduced total an optimiser step reads
	pi  []*piScratch
	v   []*vScratch
	idx []int
}

// piScratch is one policy-update worker's reusable state: gradient
// accumulator, batch cache sized to the widest observation seen, and the
// per-decision score/prob/gradient vectors.
type piScratch struct {
	g       *nn.Grads
	bc      *nn.BatchCache
	gradOut *nn.Mat
	scores  []float64
	probs   []float64
	dscore  []float64
	gather  []int
	loss    float64
	kl      float64
	ent     float64
}

func (s *piScratch) ensure(policy *nn.MLP, n int) {
	if cap(s.scores) < n {
		s.scores = make([]float64, n)
		s.probs = make([]float64, n)
		s.dscore = make([]float64, n)
		s.gather = make([]int, n)
	}
	if s.bc == nil || s.bc.Cap() < n {
		s.bc = nn.NewBatchCache(policy, n)
		s.gradOut = nn.NewMat(n, 1)
	}
}

// valueBatchRows is the row block of every critic pass (the values before
// GAE and the regression steps): large enough that the GEMM amortises, small
// enough that the cache stays ~0.9 MB at the paper's 1,677-wide flat
// observation (129 rows x 13 features).
const valueBatchRows = 64

// vScratch is one value-update worker's reusable state.
type vScratch struct {
	g       *nn.Grads
	bc      *nn.BatchCache
	gradOut *nn.Mat
	loss    float64
}

// piScratches returns (growing if needed) one policy scratch per worker.
func (p *PPO) piScratches(workers int) []*piScratch {
	for len(p.pi) < workers {
		p.pi = append(p.pi, &piScratch{g: nn.NewGrads(p.Policy)})
	}
	return p.pi
}

// vScratches returns (growing if needed) one value scratch per worker.
func (p *PPO) vScratches(workers int) []*vScratch {
	for len(p.v) < workers {
		p.v = append(p.v, &vScratch{
			g:       nn.NewGrads(p.Value),
			bc:      nn.NewBatchCache(p.Value, valueBatchRows),
			gradOut: nn.NewMat(valueBatchRows, 1),
		})
	}
	return p.v
}

// New wires the networks to fresh Adam optimisers.
func New(policy, value *nn.MLP, cfg Config) *PPO {
	return &PPO{
		Policy: policy,
		Value:  value,
		Cfg:    cfg,
		piOpt:  nn.NewAdam(policy, piLR),
		vOpt:   nn.NewAdam(value, vLR),
		rng:    stats.NewRNG(cfg.Seed + 0x5bd1e995),
	}
}

// UpdateStats reports what one Update did.
type UpdateStats struct {
	Steps      int
	PiIters    int
	VIters     int
	KL         float64
	Entropy    float64
	PiLossInit float64
	PiLossLast float64
	VLossInit  float64
	VLossLast  float64
}

// Update performs one PPO epoch over the collected trajectories: one critic
// pass for V(s), GAE advantage estimation, normalised advantages, PiIters
// clipped-surrogate policy steps with KL early stopping, and VIters
// value-regression steps.
func (p *PPO) Update(trajs []Trajectory) UpdateStats {
	var steps []Step
	for _, tr := range trajs {
		steps = append(steps, tr.Steps...)
	}
	st := UpdateStats{Steps: len(steps)}
	if len(steps) == 0 {
		return st
	}
	workers := max(p.Cfg.Workers, 1)
	if cap(p.idx) < len(steps) {
		p.idx = make([]int, len(steps))
	}
	idx := p.idx[:len(steps)]
	for i := range idx {
		idx[i] = i
	}

	// The critic's weights are still the ones every step was collected
	// under, so these are the values a rollout would have recorded.
	values := p.values(steps, idx, workers)
	advs := make([]float64, 0, len(steps))
	rets := make([]float64, 0, len(steps))
	var rewards []float64
	off := 0
	for _, tr := range trajs {
		rewards = rewards[:0]
		for _, s := range tr.Steps {
			rewards = append(rewards, s.Reward)
		}
		adv, ret := GAE(rewards, values[off:off+len(rewards)], p.Cfg.Lambda)
		advs = append(advs, adv...)
		rets = append(rets, ret...)
		off += len(rewards)
	}
	normalize(advs)

	// ---- policy updates ----
	for iter := 0; iter < p.Cfg.PiIters; iter++ {
		batch := p.minibatch(idx)
		loss, kl, ent := p.policyStep(steps, advs, batch, workers)
		if iter == 0 {
			st.PiLossInit = loss
			st.Entropy = ent
		}
		st.PiLossLast = loss
		st.KL = kl
		st.PiIters = iter + 1
		if p.Cfg.TargetKL > 0 && kl > 1.5*p.Cfg.TargetKL {
			break
		}
	}

	// ---- value updates ----
	for iter := 0; iter < p.Cfg.VIters; iter++ {
		batch := p.minibatch(idx)
		loss := p.valueStep(steps, rets, batch, workers)
		if iter == 0 {
			st.VLossInit = loss
		}
		st.VLossLast = loss
		st.VIters = iter + 1
	}
	return st
}

// chunks runs fn(i, lo, hi) over static contiguous chunks of [0, n) on
// pool.Each, one chunk per worker, and returns how many chunks ran (at most
// workers). Every chunk but the last holds ceil(n/workers) items, so chunk i
// always sums the same samples in the same order into scratch i: a gradient
// sum depends on the worker count and on nothing else (DESIGN.md §8).
func chunks(n, workers int, fn func(i, lo, hi int)) int {
	if n == 0 {
		return 0
	}
	size := (n + workers - 1) / workers
	count := (n + size - 1) / size
	pool.Each(count, count, func(i int) error {
		fn(i, i*size, min((i+1)*size, n))
		return nil
	})
	return count
}

// criticBlocks runs the critic over steps[rows[i]], valueBatchRows rows per
// batched forward through bc, and hands each block's rows and outputs to fn
// before the next block overwrites the cache.
func (p *PPO) criticBlocks(bc *nn.BatchCache, steps []Step, rows []int, fn func(block []int, out *nn.Mat)) {
	for start := 0; start < len(rows); start += valueBatchRows {
		block := rows[start:min(start+valueBatchRows, len(rows))]
		bc.Resize(len(block))
		for r, si := range block {
			bc.SetRow(r, steps[si].FlatObs, steps[si].Live)
		}
		fn(block, p.Value.ForwardBatch(bc.X[0], bc))
	}
}

// values returns V(s) of steps[rows[i]] at index rows[i]. ForwardBatch
// computes every row on its own, so each value is bit-identical to a per-row
// critic forward whatever block or worker the row lands in.
func (p *PPO) values(steps []Step, rows []int, workers int) []float64 {
	scratch := p.vScratches(workers)
	vals := make([]float64, len(steps))
	chunks(len(rows), workers, func(w, lo, hi int) {
		p.criticBlocks(scratch[w].bc, steps, rows[lo:hi], func(block []int, out *nn.Mat) {
			for r, si := range block {
				vals[si] = out.At(r, 0)
			}
		})
	})
	return vals
}

// minibatch returns the sample indices for one update iteration, shuffling
// in place when a minibatch size is configured.
func (p *PPO) minibatch(idx []int) []int {
	mb := p.Cfg.MiniBatch
	if mb <= 0 || mb >= len(idx) {
		return idx
	}
	// partial Fisher-Yates: the first mb entries become a uniform sample
	for i := 0; i < mb; i++ {
		j := i + p.rng.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:mb]
}

// policyStep computes one clipped-surrogate gradient step over the batch and
// returns (loss, approxKL, entropy). Each worker scores its decisions with
// one ForwardBatch over the selectable rows and backpropagates them with one
// BackwardBatch, instead of a Forward/Backward pair per candidate row; the
// batched kernels' accumulation-order contract keeps the resulting gradients
// bit-identical to the per-row loop at any Workers value.
func (p *PPO) policyStep(steps []Step, advs []float64, batch []int, workers int) (loss, kl, ent float64) {
	scratch := p.piScratches(workers)
	active := chunks(len(batch), workers, func(w, lo, hi int) {
		s := scratch[w]
		s.g.Zero()
		s.loss, s.kl, s.ent = 0, 0, 0
		for _, si := range batch[lo:hi] {
			p.policyStepOne(s, &steps[si], advs[si])
		}
	})

	total := scratch[0].g
	for _, s := range scratch[1:active] {
		total.Add(s.g)
	}
	n := float64(len(batch))
	total.Scale(1 / n)
	p.piOpt.Step(p.Policy, total)
	for _, s := range scratch[:active] {
		loss += s.loss
		kl += s.kl
		ent += s.ent
	}
	return loss / n, kl / n, ent / n
}

// policyStepOne processes one recorded decision: batched forward over the
// selectable rows, surrogate loss, and batched backward of the score
// gradients into s.g.
func (p *PPO) policyStepOne(s *piScratch, st *Step, adv float64) {
	n := len(st.Mask)
	s.ensure(p.Policy, n)

	// gather + score the selectable rows with one batched forward (masked
	// rows score 0 and never reach the backward pass, exactly like the
	// per-row loop); s.bc keeps the forward cache in gather order for the
	// BackwardBatch below.
	probs, k := p.Policy.ScoreMasked(st.FlatObs, st.Mask, s.bc, s.gather, s.scores[:n], s.probs[:n])
	newLogP := nn.LogProb(probs, st.Action)
	ratio := math.Exp(newLogP - st.LogP)

	// clipped surrogate: L = -min(ratio*A, clip(ratio)*A)
	unclipped := ratio * adv
	clipped := clampF(ratio, 1-clipRatio, 1+clipRatio) * adv
	obj := math.Min(unclipped, clipped)
	s.loss += -obj
	s.kl += st.LogP - newLogP
	h := nn.Entropy(probs)
	s.ent += h

	// dL/dlogp: zero when the clip branch saturates
	var dlogp float64
	if unclipped <= clipped {
		dlogp = -ratio * adv
	}
	dscore := s.dscore[:n]
	nn.SoftmaxPolicyGrad(probs, st.Mask, st.Action, dlogp, p.Cfg.EntropyCoef, h, dscore)

	gradOut := s.gradOut
	gradOut.Rows = k
	anyGrad := false
	for j := 0; j < k; j++ {
		d := dscore[s.gather[j]]
		gradOut.Data[j] = d
		anyGrad = anyGrad || d != 0
	}
	if anyGrad {
		p.Policy.BackwardBatch(s.bc, gradOut, s.g)
	}
}

// valueStep computes one mean-squared-error regression step for the critic
// and returns the loss. Each worker runs its share of the minibatch through
// criticBlocks and backpropagates every block with one BackwardBatch;
// gradients and loss are bit-identical to the per-row loop.
func (p *PPO) valueStep(steps []Step, rets []float64, batch []int, workers int) float64 {
	scratch := p.vScratches(workers)
	active := chunks(len(batch), workers, func(w, lo, hi int) {
		s := scratch[w]
		s.g.Zero()
		s.loss = 0
		p.criticBlocks(s.bc, steps, batch[lo:hi], func(block []int, out *nn.Mat) {
			gradOut := s.gradOut
			gradOut.Rows = len(block)
			for r, si := range block {
				diff := out.At(r, 0) - rets[si]
				s.loss += diff * diff
				gradOut.Data[r] = 2 * diff
			}
			p.Value.BackwardBatch(s.bc, gradOut, s.g)
		})
	})

	total := scratch[0].g
	for _, s := range scratch[1:active] {
		total.Add(s.g)
	}
	n := float64(len(batch))
	total.Scale(1 / n)
	p.vOpt.Step(p.Value, total)
	var loss float64
	for _, s := range scratch[:active] {
		loss += s.loss
	}
	return loss / n
}

// GAE computes generalised advantage estimates and undiscounted
// rewards-to-go for one episode (terminal value 0).
func GAE(rewards, values []float64, lambda float64) (adv, ret []float64) {
	n := len(rewards)
	adv = make([]float64, n)
	ret = make([]float64, n)
	var lastAdv, lastRet float64
	for t := n - 1; t >= 0; t-- {
		var nextV float64
		if t+1 < n {
			nextV = values[t+1]
		}
		delta := rewards[t] + nextV - values[t]
		lastAdv = delta + lambda*lastAdv
		adv[t] = lastAdv
		lastRet = rewards[t] + lastRet
		ret[t] = lastRet
	}
	return adv, ret
}

// normalize shifts and scales xs to zero mean and unit variance in place
// (no-op for constant inputs).
func normalize(xs []float64) {
	if len(xs) == 0 {
		return
	}
	m := stats.Mean(xs)
	var sq float64
	for _, x := range xs {
		d := x - m
		sq += d * d
	}
	sd := math.Sqrt(sq / float64(len(xs)))
	if sd < 1e-12 {
		for i := range xs {
			xs[i] = 0
		}
		return
	}
	for i := range xs {
		xs[i] = (xs[i] - m) / sd
	}
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
