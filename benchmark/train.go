package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/backfill"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/ppo"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// trainConfig is the learner at the paper's observation shape (128 jobs, 256
// per episode) with a short epoch: 8 trajectories, then 4 policy and 4 value
// iterations over 1024-sample minibatches, which is still two thirds of the
// epoch's half second. The trainer's own seed is fixed: it draws the 256-job
// windows, and the number of backfill decisions in them (3714 to 6296 in the
// first epoch of 16 trajectories over ten seeds) sets the trajectory memory,
// which is nearly all of the process's peak RSS.
func trainConfig(c *runCtx, workers int) core.TrainConfig {
	cfg := core.QuickTrainConfig()
	cfg.Obs.MaxObs = c.scale(128, 16)
	cfg.TrajPerEpoch = c.scale(8, 2)
	cfg.EpisodeLen = c.scale(256, 32)
	cfg.PPO.PiIters, cfg.PPO.VIters = c.scale(4, 2), c.scale(4, 2)
	cfg.Workers = workers
	cfg.Seed = 1
	return cfg
}

// trainWorkers leaves one core to the runtime's collector and the harness.
// With every core taken by a worker, an epoch on this two-core sandbox took
// 1.3 s or 2.4 s depending on what else the host was running.
func trainWorkers() int { return max(1, runtime.GOMAXPROCS(0)-1) }

// trainTrace is the dataset: one fixed SDSC-SP2 surrogate, as the paper
// trains on one archive log, with every runtime moved by up to 5% either way
// from the run's seed. The schedules, observations and sampled actions differ
// from seed to seed; the congestion the windows see, and so the work an
// epoch does, stays put (3765 to 3883 decisions over ten seeds).
func trainTrace(c *runCtx) *trace.Trace {
	tr := trace.SyntheticSDSCSP2(c.scale(10_000, 1_000), 4)
	rng := stats.NewRNG(c.seed)
	for _, j := range tr.Jobs {
		j.Runtime = max(1, int64(float64(j.Runtime)*(0.95+0.1*rng.Float64())))
	}
	return tr
}

// epochDigest folds everything an epoch reports into one CRC32C, floats by
// their bits: training is documented as independent of the worker count and
// of goroutine scheduling, and this is where that is held to it.
func epochDigest(h uint32, st core.EpochStats) uint32 {
	s := fmt.Sprintf("%d %x %x %x %d %d %d %d %x %x %x %x|", st.Epoch,
		math.Float64bits(st.MeanBSLD), math.Float64bits(st.BaselineBSLD), math.Float64bits(st.MeanReward),
		st.Violations, st.Steps, st.Update.PiIters, st.Update.VIters,
		math.Float64bits(st.Update.KL), math.Float64bits(st.Update.Entropy),
		math.Float64bits(st.Update.PiLossLast), math.Float64bits(st.Update.VLossLast))
	return crc32.Update(h, castagnoli, []byte(s))
}

// freshEpoch is the timed unit: a new trainer from the run's seed and its
// first epoch (rollouts under the initial policy, baselines, one PPO
// update). Every unit of a run therefore does identical work and must report
// identical EpochStats.
func freshEpoch(c *runCtx, tr *trace.Trace, workers int) (*core.Trainer, core.EpochStats, error) {
	trainer, err := core.NewTrainer(tr, trainConfig(c, workers))
	if err != nil {
		return nil, core.EpochStats{}, err
	}
	st, err := trainer.RunEpoch()
	return trainer, st, err
}

func runTrain(c *runCtx) error {
	workers := trainWorkers()
	// The first set-up (dataset from the seed, trainer, one epoch) warms the
	// process up and is the reference every unit must reproduce.
	t0 := time.Now()
	tr := trainTrace(c)
	c.set("trace.gen_s", time.Since(t0).Seconds())
	trainer, first, err := freshEpoch(c, tr, workers)
	if err != nil {
		return err
	}
	ref := epochDigest(0, first)
	c.digest("epoch0", fmt.Sprintf("%08x", ref))
	cfg := trainer.Config()

	if !c.traced {
		// A set-up is a unit plus the dataset, so every unit regenerates the
		// dataset and counts as one more set-up: sixteen of them where three
		// or five at the very start of the process read 0.63 to 1.03 s by
		// their median over ten runs while the units moved by 6%.
		var unitS, setupS []float64
		budget := c.dur(c.seconds)
		for start := time.Now(); time.Since(start) < budget || len(unitS) < 3; {
			t0 := time.Now()
			tr := trainTrace(c)
			t1 := time.Now()
			_, st, err := freshEpoch(c, tr, workers)
			t2 := time.Now()
			unitS = append(unitS, t2.Sub(t1).Seconds())
			setupS = append(setupS, t2.Sub(t0).Seconds())
			c.attempted++
			if err != nil {
				c.failed++
				c.fail("epoch: %v", err)
			} else if d := epochDigest(0, st); d != ref {
				c.fail("unit %d reported EpochStats %08x, the first %08x", len(unitS), d, ref)
			}
		}
		c.set("setup_s", percentile(setupS, 0.1))
		// Identical units, so interference can only add time and the fast
		// decile estimates the program's own cost; an epoch cannot be timed
		// in laps from outside core, as replay.go times its units. Jobs, not
		// steps: an epoch always schedules TrajPerEpoch x EpisodeLen jobs,
		// while the number of backfill decisions among them swings by half
		// from seed to seed.
		fast := percentile(unitS, 0.1)
		c.set("work_per_s", float64(cfg.TrajPerEpoch*cfg.EpisodeLen)/fast)
		c.set("wait_ms", fast*1e3)
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return err
		}
		c.set("peak_rss_mb", rss)
		c.note("train-sdsc: %d epochs of %d steps, digest %08x: fast decile %.3fs, median %.3fs",
			len(unitS), first.Steps, ref, fast, median(unitS))
		return nil
	}

	// The traced run keeps training the one trainer for a fixed number of
	// epochs, so that its counts and the evaluation of the resulting agent
	// repeat exactly.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	epochs := []core.EpochStats{first}
	var epochS, stepsPerS []float64
	for len(epochs) < 1+c.scale(8, 2) {
		t0 := time.Now()
		st, err := trainer.RunEpoch()
		c.attempted++
		if err != nil {
			c.failed++
			return fmt.Errorf("epoch %d: %w", len(epochs), err)
		}
		d := time.Since(t0).Seconds()
		epochs = append(epochs, st)
		epochS = append(epochS, d)
		stepsPerS = append(stepsPerS, float64(st.Steps)/d)
	}
	runtime.ReadMemStats(&m1)
	var dig uint32
	for _, st := range epochs {
		dig = epochDigest(dig, st)
	}
	c.digest("epochs", fmt.Sprintf("%08x", dig))
	last := epochs[len(epochs)-1]
	c.note("train-sdsc: %d epochs after the first, median %.3fs, epoch-1 steps %d, digest %08x, last bsld %.3f vs baseline %.3f",
		len(epochS), median(epochS), epochs[1].Steps, dig, last.MeanBSLD, last.BaselineBSLD)

	c.set("core.epoch_steps", float64(epochs[1].Steps))
	c.set("core.steps_per_s", median(stepsPerS))
	c.set("core.alloc_mb_per_epoch", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(len(epochS)))
	c.set("ppo.pi_iters_run", float64(last.Update.PiIters))
	c.set("ppo.kl_final", last.Update.KL)
	// The epoch path carries no decorator (the trainer builds its own
	// engines), so the traced epochs are the untraced ones.
	c.set("trace.overhead_share", 0)

	// Another worker count: the rollouts of epoch 0 (taken before any update)
	// must not move. Later epochs may differ in the last float bits, because
	// the update's gradient sums are partitioned per worker.
	other := 2
	if workers > 1 {
		other = 1
	}
	_, st0, err := freshEpoch(c, tr, other)
	c.attempted++
	if err != nil {
		c.failed++
		return err
	}
	if rolloutDigest(st0) != rolloutDigest(first) {
		c.fail("epoch-0 rollouts differ between %d workers and %d: %+v vs %+v", workers, other, first, st0)
	}

	if err := evalAgent(c, trainer.Agent(), tr, workers); err != nil {
		return err
	}
	mask, err := rolloutMask(c, trainer.Agent(), tr, trainer.Config())
	if err != nil {
		return err
	}
	upd := ppoUpdateAlone(c, trainer.Config(), last, mask)
	c.set("ppo.update_s", upd)
	c.set("core.rollout_s", max(median(epochS)-upd, 0))
	nnDrives(c, trainer.Config())
	return nil
}

// rolloutDigest keeps the part of an epoch's report that the rollouts alone
// determine.
func rolloutDigest(st core.EpochStats) string {
	return fmt.Sprintf("%x %x %x %d %d", math.Float64bits(st.MeanBSLD), math.Float64bits(st.BaselineBSLD),
		math.Float64bits(st.MeanReward), st.Violations, st.Steps)
}

// ppoUpdateAlone times PPO.Update by itself on synthetic trajectories of the
// last epoch's shape: its step count, the full observation rows with `mask`
// of them selectable (the mean the evaluation replay saw), and as many
// policy iterations as that epoch ran before its KL stop. Fresh networks, so
// the trainer's state is untouched.
func ppoUpdateAlone(c *runCtx, cfg core.TrainConfig, last core.EpochStats, mask int) float64 {
	rng := stats.NewRNG(c.seed ^ 0x75706474)
	agent := core.NewAgent(cfg.Obs, cfg.Net, cfg.Est, c.seed)
	pc := cfg.PPO
	pc.PiIters, pc.TargetKL = last.Update.PiIters, 0
	opt := ppo.New(agent.Policy, agent.Value, pc)
	rows, feat := cfg.Obs.Rows(), core.JobFeatures
	mask = min(max(mask, 1), rows-1)
	perTraj := max(last.Steps/cfg.TrajPerEpoch, 1)
	trajs := make([]ppo.Trajectory, cfg.TrajPerEpoch)
	for t := range trajs {
		st := make([]ppo.Step, perTraj)
		for s := range st {
			obs := make([][]float64, rows)
			sel := make([]bool, rows)
			flat := make([]float64, rows*feat)
			for i := range obs {
				obs[i] = flat[i*feat : (i+1)*feat]
				for k := range obs[i] {
					obs[i][k] = rng.Float64()
				}
				sel[i] = i < mask || i == rows-1 // the skip slot is always selectable
			}
			st[s] = ppo.Step{Obs: obs, FlatObs: flat, Mask: sel, Action: rng.Intn(mask),
				LogP: -math.Log(float64(mask + 1)), Reward: rng.Float64() - 0.5}
		}
		trajs[t] = ppo.Trajectory{Steps: st}
	}
	var times []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		opt.Update(trajs)
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times)
}

// nnDrives times one batched forward and backward pass of the policy
// network over a full observation (rows x JobFeatures).
func nnDrives(c *runCtx, cfg core.TrainConfig) {
	budget := c.driveBudget(100 * time.Millisecond)
	rng := stats.NewRNG(c.seed ^ 0x6e6e)
	agent := core.NewAgent(cfg.Obs, cfg.Net, cfg.Est, c.seed)
	m, rows := agent.Policy, cfg.Obs.Rows()
	bc := nn.NewBatchCache(m, rows)
	x := bc.Input(rows)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	grads := nn.NewGrads(m)
	gradOut := nn.NewMat(rows, 1)
	for i := range gradOut.Data {
		gradOut.Data[i] = 1
	}
	c.set("nn.forward_us", drive(budget, 16, func(int) { m.ForwardBatch(x, bc) })/1e3)
	both := drive(budget, 16, func(int) {
		m.ForwardBatch(x, bc)
		m.BackwardBatch(bc, gradOut, grads)
	}) / 1e3
	c.set("nn.backward_us", max(both-c.values["nn.forward_us"], 0))
}

// evalAgent replays four 1024-job evaluation sequences greedily with the
// trained agent and with FCFS+EASY. The ratio tracks learning quality and is
// never gated. One more replay, decorated, gives the cost of an agent call.
func evalAgent(c *runCtx, agent *core.Agent, tr *trace.Trace, workers int) error {
	ec := core.EvalConfig{Sequences: 4, SeqLen: c.scale(1024, 128), Seed: c.seed + 2023, Workers: workers}
	rl, _, err := core.EvaluateAgent(agent, tr, sched.FCFS{}, ec)
	if err != nil {
		return err
	}
	easy, _, err := core.EvaluateStrategy(tr, sched.FCFS{}, backfill.NewEASY(backfill.RequestTime{}), ec)
	if err != nil {
		return err
	}
	c.set("core.eval_bsld_ratio", rl/easy)
	c.digest("eval_bsld_ratio", fmt.Sprintf("%x", math.Float64bits(rl/easy)))

	tb := &timedBackfiller{inner: agent.Fresh()}
	if _, err := sim.Run(trace.Slice(tr, 0, ec.SeqLen), sim.Config{Policy: sched.FCFS{}, Backfiller: tb}); err != nil {
		return err
	}
	if tb.calls > 0 {
		c.set("core.decision_us", tb.busy.Seconds()*1e6/float64(tb.calls))
	}
	return nil
}

// rolloutMask replays a few training-shaped episodes (EpisodeLen jobs from a
// random start, sampling agent) behind a probe and returns the mean number
// of rows a decision chose among: the width of the batches PPO.Update scores.
func rolloutMask(c *runCtx, agent *core.Agent, tr *trace.Trace, cfg core.TrainConfig) (int, error) {
	rng := stats.NewRNG(c.seed ^ 0x6d61736b)
	probe := &selectableProbe{obs: agent.Obs, est: agent.Est}
	for i := 0; i < 4; i++ {
		start := 0
		if tr.Len() > cfg.EpisodeLen {
			start = rng.Intn(tr.Len() - cfg.EpisodeLen + 1)
		}
		probe.inner = agent.CloneForRollout(rng, cfg.ViolationPenalty)
		if _, err := sim.Run(trace.Slice(tr, start, cfg.EpisodeLen), sim.Config{Policy: cfg.BasePolicy, Backfiller: probe}); err != nil {
			return 0, err
		}
	}
	if probe.n == 0 {
		return 1, nil
	}
	return (probe.sum + probe.n/2) / probe.n, nil
}

// selectableProbe encodes the observation the agent is about to see, to learn
// how many rows a decision chooses among.
type selectableProbe struct {
	inner  backfill.Backfiller
	obs    core.ObsConfig
	est    backfill.Estimator
	sum, n int
}

func (p *selectableProbe) Name() string { return p.inner.Name() }

func (p *selectableProbe) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	o := core.BuildObservation(p.obs, st, head, queue, p.est, backfill.ComputeReservation(st, head, p.est))
	if o.Selectable > 0 {
		p.sum += o.Selectable
		p.n++
	}
	p.inner.Backfill(st, head, queue)
}
