package ppo

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/stats"
)

func TestGAEMatchesBruteForce(t *testing.T) {
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed))
		n := r.Intn(20) + 1
		rewards := make([]float64, n)
		values := make([]float64, n)
		for i := range rewards {
			rewards[i] = r.Normal(0, 1)
			values[i] = r.Normal(0, 1)
		}
		const lambda = 0.9
		adv, ret := GAE(rewards, values, lambda)

		// brute force
		for tt := 0; tt < n; tt++ {
			// advantage: sum_k lambda^k * delta_{t+k}
			want := 0.0
			for k := 0; tt+k < n; k++ {
				nextV := 0.0
				if tt+k+1 < n {
					nextV = values[tt+k+1]
				}
				delta := rewards[tt+k] + nextV - values[tt+k]
				want += math.Pow(lambda, float64(k)) * delta
			}
			if math.Abs(adv[tt]-want) > 1e-9 {
				return false
			}
			// undiscounted rewards-to-go
			wantRet := 0.0
			for k := 0; tt+k < n; k++ {
				wantRet += rewards[tt+k]
			}
			if math.Abs(ret[tt]-wantRet) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGAETerminalOnlyReward(t *testing.T) {
	// The terminal reward propagates undiscounted to every step's return —
	// the structure the backfilling episodes use (§3.4).
	rewards := []float64{0, 0, 0, 5}
	values := []float64{0, 0, 0, 0}
	_, ret := GAE(rewards, values, 0.97)
	for i, v := range ret {
		if v != 5 {
			t.Fatalf("ret[%d] = %v, want 5", i, v)
		}
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	normalize(xs)
	if math.Abs(stats.Mean(xs)) > 1e-12 {
		t.Fatalf("normalized mean %v", stats.Mean(xs))
	}
	var sq float64
	for _, x := range xs {
		sq += x * x
	}
	if math.Abs(sq/4-1) > 1e-9 {
		t.Fatalf("normalized variance %v", sq/4)
	}
	cs := []float64{7, 7, 7}
	normalize(cs)
	for _, v := range cs {
		if v != 0 {
			t.Fatal("constant input should normalise to zeros")
		}
	}
}

// Distribution scores every selectable row of obs with the kernel network,
// through the batched path Update scores with, and returns the masked-softmax
// action distribution.
func (p *PPO) Distribution(obs [][]float64, mask []bool) []float64 {
	var cells []float64
	for _, row := range obs {
		cells = append(cells, row...)
	}
	n := len(mask)
	probs, _ := p.Policy.ScoreMasked(cells, mask, nn.NewBatchCache(p.Policy, n), make([]int, n), make([]float64, n), make([]float64, n))
	return probs
}

// mkPPO builds a small agent with deterministic init.
func mkPPO(featDim, slots int, cfg Config) *PPO {
	rng := stats.NewRNG(99)
	policy := nn.NewMLP([]int{featDim, 16, 8, 1}, rng)
	value := nn.NewMLP([]int{featDim * slots, 16, 1}, rng)
	return New(policy, value, cfg)
}

// banditTrajectories builds a contextual-bandit dataset: two candidate rows;
// choosing the row whose first feature is larger yields reward 1, else 0.
func banditTrajectories(p *PPO, rng *stats.RNG, nTraj, featDim, slots int) []Trajectory {
	trajs := make([]Trajectory, nTraj)
	for ti := range trajs {
		obs := make([][]float64, slots)
		mask := make([]bool, slots)
		flat := make([]float64, featDim*slots)
		best := 0
		bestV := -1.0
		for i := 0; i < slots; i++ {
			row := make([]float64, featDim)
			for k := range row {
				row[k] = rng.Float64()
			}
			obs[i] = row
			mask[i] = true
			copy(flat[i*featDim:], row)
			if row[0] > bestV {
				bestV = row[0]
				best = i
			}
		}
		probs := p.Distribution(obs, mask)
		a := nn.SampleCategorical(probs, rng)
		reward := 0.0
		if a == best {
			reward = 1
		}
		trajs[ti] = Trajectory{Steps: []Step{{
			FlatObs: flat, Mask: mask, Action: a,
			LogP:   nn.LogProb(probs, a),
			Reward: reward,
		}}}
	}
	return trajs
}

// The integration test: PPO must learn the pick-the-larger-feature bandit.
func TestPPOLearnsBandit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PiIters = 20
	cfg.VIters = 20
	cfg.MiniBatch = 0
	cfg.Workers = 2
	cfg.Seed = 7
	const featDim, slots = 3, 2
	p := mkPPO(featDim, slots, cfg)
	rng := stats.NewRNG(3)

	accuracy := func() float64 {
		hits := 0
		const trials = 500
		r := stats.NewRNG(123)
		for i := 0; i < trials; i++ {
			obs := make([][]float64, slots)
			mask := []bool{true, true}
			best, bestV := 0, -1.0
			for k := 0; k < slots; k++ {
				row := []float64{r.Float64(), r.Float64(), r.Float64()}
				obs[k] = row
				if row[0] > bestV {
					bestV, best = row[0], k
				}
			}
			probs := p.Distribution(obs, mask)
			if nn.Argmax(probs) == best {
				hits++
			}
		}
		return float64(hits) / trials
	}

	before := accuracy()
	for epoch := 0; epoch < 15; epoch++ {
		trajs := banditTrajectories(p, rng, 200, featDim, slots)
		st := p.Update(trajs)
		if st.Steps != 200 {
			t.Fatalf("update saw %d steps", st.Steps)
		}
	}
	after := accuracy()
	if after < 0.9 {
		t.Fatalf("PPO failed to learn bandit: accuracy %.2f -> %.2f", before, after)
	}
}

func TestUpdateEmptyTrajectories(t *testing.T) {
	p := mkPPO(3, 2, DefaultConfig())
	st := p.Update([]Trajectory{{}, {}})
	if st.Steps != 0 || st.PiIters != 0 {
		t.Fatalf("empty update did something: %+v", st)
	}
}

func TestKLEarlyStopping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PiIters = 80
	cfg.VIters = 1
	cfg.TargetKL = 1e-9 // absurdly tight: must stop almost immediately
	cfg.MiniBatch = 0
	p := mkPPO(3, 2, cfg)
	rng := stats.NewRNG(5)
	trajs := banditTrajectories(p, rng, 50, 3, 2)
	st := p.Update(trajs)
	if st.PiIters > 5 {
		t.Fatalf("KL early stop did not trigger: %d iterations", st.PiIters)
	}
}

func TestMinibatchSelection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MiniBatch = 4
	p := mkPPO(2, 2, cfg)
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b := p.minibatch(idx)
	if len(b) != 4 {
		t.Fatalf("minibatch size %d", len(b))
	}
	seen := map[int]bool{}
	for _, v := range b {
		if v < 0 || v > 7 || seen[v] {
			t.Fatalf("bad minibatch %v", b)
		}
		seen[v] = true
	}
	cfg.MiniBatch = 0
	p2 := mkPPO(2, 2, cfg)
	if got := p2.minibatch(idx); len(got) != 8 {
		t.Fatalf("full batch size %d", len(got))
	}
}

func TestValueRegression(t *testing.T) {
	// With PiIters=0, Update reduces critic MSE on a fixed target.
	cfg := DefaultConfig()
	cfg.PiIters = 0
	cfg.VIters = 600 // at the fixed critic learning rate, 1e-3
	cfg.MiniBatch = 0
	p := mkPPO(2, 2, cfg)
	rng := stats.NewRNG(11)
	var trajs []Trajectory
	for i := 0; i < 100; i++ {
		flat := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		target := flat[0] + flat[1] // learnable function
		trajs = append(trajs, Trajectory{Steps: []Step{{
			FlatObs: flat, Mask: []bool{true, true}, Action: 0, LogP: math.Log(0.5),
			Reward: target,
		}}})
	}
	st := p.Update(trajs)
	if st.VLossLast >= st.VLossInit {
		t.Fatalf("value loss did not decrease: %v -> %v", st.VLossInit, st.VLossLast)
	}
	if st.VLossLast > 0.05 {
		t.Fatalf("value loss too high after regression: %v", st.VLossLast)
	}
}

func TestUpdateDeterministicForFixedSeed(t *testing.T) {
	build := func() (*PPO, []Trajectory) {
		cfg := DefaultConfig()
		cfg.PiIters = 5
		cfg.VIters = 5
		cfg.Workers = 3 // parallel reduction must stay deterministic
		cfg.Seed = 42
		p := mkPPO(3, 2, cfg)
		rng := stats.NewRNG(9)
		return p, banditTrajectories(p, rng, 60, 3, 2)
	}
	p1, t1 := build()
	p2, t2 := build()
	p1.Update(t1)
	p2.Update(t2)
	for l := range p1.Policy.W {
		for i := range p1.Policy.W[l].Data {
			if p1.Policy.W[l].Data[i] != p2.Policy.W[l].Data[i] {
				t.Fatalf("policy weights diverged at layer %d index %d", l, i)
			}
		}
	}
}

func TestDistributionMasksInvalidRows(t *testing.T) {
	p := mkPPO(3, 3, DefaultConfig())
	obs := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	probs := p.Distribution(obs, []bool{true, false, true})
	if probs[1] != 0 {
		t.Fatal("masked row received probability")
	}
	if math.Abs(probs[0]+probs[2]-1) > 1e-12 {
		t.Fatal("valid probabilities do not sum to 1")
	}
}

// TestUpdateOccupancyInvariant pins that the compact step only saves time and
// memory: the same decisions recorded compactly (occupied rows and the skip
// row, with their Live) and as whole zero-padded observations (no Live) leave
// identical policy and value networks and identical UpdateStats, bit for bit,
// at 1 and 3 workers. Occupancies vary from step to step, so the shuffled
// minibatches mix them inside the critic's kernel blocks and a cache row's
// next occupant is shorter or longer than its last, and the 300 steps span
// several valueBatchRows blocks of the reused batch cache.
func TestUpdateOccupancyInvariant(t *testing.T) {
	const feat, slots = 4, 12
	for _, workers := range []int{1, 3} {
		run := func(compact bool) (*PPO, UpdateStats) {
			cfg := DefaultConfig()
			cfg.PiIters, cfg.VIters = 4, 4
			cfg.MiniBatch = 170
			cfg.Workers = workers
			cfg.Seed = 7
			p := mkPPO(feat, slots, cfg)
			rng := stats.NewRNG(31)
			trajs := make([]Trajectory, 20)
			for ti := range trajs {
				steps := make([]Step, 15)
				for si := range steps {
					occ := 1 + rng.Intn(slots-1) // leading rows filled; the last row is the skip slot
					flat := make([]float64, feat*slots)
					mask := make([]bool, slots)
					for i := range mask {
						if i < occ || i == slots-1 {
							for k := 0; k < feat; k++ {
								flat[i*feat+k] = rng.Normal(0, 1)
							}
							mask[i] = true
						}
					}
					act := rng.Intn(occ + 1) // occ is the skip slot once compact
					steps[si] = Step{FlatObs: flat, Mask: mask, Action: act,
						LogP: -math.Log(float64(occ + 1)), Reward: rng.Float64()}
					if act == occ {
						steps[si].Action = slots - 1
					}
					if compact {
						steps[si].Action = act
						steps[si].FlatObs = append(flat[:occ*feat:occ*feat], flat[(slots-1)*feat:]...)
						steps[si].Mask = append(mask[:occ:occ], mask[slots-1])
						steps[si].Live = nn.Live{Head: occ * feat, Tail: feat}
					}
				}
				trajs[ti] = Trajectory{Steps: steps}
			}
			return p, p.Update(trajs)
		}
		dense, denseStats := run(false)
		sparse, sparseStats := run(true)
		if denseStats != sparseStats {
			t.Fatalf("workers=%d: UpdateStats differ:\n dense  %+v\n sparse %+v", workers, denseStats, sparseStats)
		}
		for name, nets := range map[string][2]*nn.MLP{"policy": {dense.Policy, sparse.Policy}, "value": {dense.Value, sparse.Value}} {
			for l := range nets[0].W {
				for i, w := range nets[0].W[l].Data {
					if math.Float64bits(w) != math.Float64bits(nets[1].W[l].Data[i]) {
						t.Fatalf("workers=%d: %s W[%d][%d] %v != %v", workers, name, l, i, w, nets[1].W[l].Data[i])
					}
				}
				for i, b := range nets[0].B[l] {
					if math.Float64bits(b) != math.Float64bits(nets[1].B[l][i]) {
						t.Fatalf("workers=%d: %s B[%d][%d] %v != %v", workers, name, l, i, b, nets[1].B[l][i])
					}
				}
			}
		}
	}
}

// refValue is the plain-loop critic forward of one step: the step's cells
// placed in a zero row of the critic's full input width, then per layer every
// product added in ascending input order from +0.0 (zeros included, no
// batch), the bias, and the activation (identity on the output layer).
func refValue(m *nn.MLP, cells []float64, live nn.Live) float64 {
	x := make([]float64, m.Sizes[0])
	if live == (nn.Live{}) {
		copy(x, cells)
	} else {
		copy(x[:live.Head], cells)
		copy(x[len(x)-live.Tail:], cells[live.Head:])
	}
	for l, w := range m.W {
		out := m.Sizes[l+1]
		z := make([]float64, out)
		for k := range z {
			for j, xj := range x {
				z[k] += xj * w.Data[j*out+k]
			}
			z[k] += m.B[l][k]
			if l < len(m.W)-1 && z[k] <= 0 { // ReLU; identity on the output layer
				z[k] = 0
			}
		}
		x = z
	}
	return x[0]
}

// TestValuesMatchPerRowForward pins the critic pass Update runs before GAE:
// every step's value is the bit pattern of refValue on that step alone,
// whatever block of valueBatchRows and whatever worker's chunk the step falls
// in. Step counts straddle one and two blocks; steps are compact (occupied
// rows plus the skip row, with their Live), dense (the whole input), or both
// interleaved.
func TestValuesMatchPerRowForward(t *testing.T) {
	const feat, slots = 4, 12
	for _, workers := range []int{1, 4} {
		for _, n := range []int{1, 63, 64, 65, 129} {
			for _, mode := range []string{"compact", "dense", "mixed"} {
				rng := stats.NewRNG(uint64(n))
				policy := nn.NewMLP([]int{feat, 8, 1}, rng)
				value := nn.NewMLP([]int{feat * slots, 16, 8, 1}, rng)
				p := New(policy, value, DefaultConfig())
				steps := make([]Step, n)
				rows := make([]int, n)
				for i := range steps {
					rows[i] = i
					occ := 1 + rng.Intn(slots-1)
					if mode == "dense" || (mode == "mixed" && i%2 == 1) {
						occ = slots - 1
					}
					cells := make([]float64, (occ+1)*feat)
					for k := range cells {
						if rng.Bool(0.8) { // exact zeros too, as in real observations
							cells[k] = rng.Normal(0, 1)
						}
					}
					steps[i] = Step{FlatObs: cells, Mask: make([]bool, occ+1)}
					if occ < slots-1 {
						steps[i].Live = nn.Live{Head: occ * feat, Tail: feat}
					}
				}
				got := p.values(steps, rows, workers)
				for i, s := range steps {
					if want := refValue(value, s.FlatObs, s.Live); math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("workers=%d, %d %s steps: step %d value %v, want %v",
							workers, n, mode, i, got[i], want)
					}
				}
			}
		}
	}
}
