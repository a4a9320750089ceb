package core

import (
	"bytes"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/backfill"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// fakeState is a minimal backfill.State for observation tests. Its tests
// reset the running set in place, so it keeps no journal: the zero Journal
// makes every reservation a rebuild.
type fakeState struct {
	now     int64
	free    int
	total   int
	running []backfill.Running
	started []*trace.Job
	journal backfill.Journal
}

func (f *fakeState) Now() int64                  { return f.now }
func (f *fakeState) FreeProcs() int              { return f.free }
func (f *fakeState) TotalProcs() int             { return f.total }
func (f *fakeState) Running() []backfill.Running { return f.running }
func (f *fakeState) Journal() *backfill.Journal  { return &f.journal }
func (f *fakeState) Scenario() sched.Scenario    { return sched.Scenario{} }
func (f *fakeState) StartJob(j *trace.Job) {
	f.started = append(f.started, j)
	f.free -= j.Procs
	f.running = append(f.running, backfill.Running{Job: j, Start: f.now})
}

func job(id int, submit, run, req int64, procs int) *trace.Job {
	return &trace.Job{ID: id, Submit: submit, Runtime: run, Request: req, Procs: procs}
}

func TestObsConfigShapes(t *testing.T) {
	cfg := ObsConfig{MaxObs: 16}
	if cfg.Rows() != 17 {
		t.Fatalf("Rows = %d, want 17 (MaxObs + skip)", cfg.Rows())
	}
	if cfg.FlatDim() != 17*JobFeatures {
		t.Fatalf("FlatDim = %d", cfg.FlatDim())
	}
	var zero ObsConfig
	if zero.Rows() != 129 {
		t.Fatalf("default Rows = %d, want 129", zero.Rows())
	}
}

func buildObs(cfg ObsConfig, st backfill.State, head *trace.Job, queue []*trace.Job) *Observation {
	est := backfill.RequestTime{}
	res := backfill.ComputeReservation(st, head, est)
	return BuildObservation(cfg, st, head, queue, est, res)
}

func TestObservationMasksHeadAndPadding(t *testing.T) {
	st := &fakeState{now: 100, free: 4, total: 16,
		running: []backfill.Running{{Job: job(1, 0, 1000, 1000, 12), Start: 0}}}
	head := job(2, 10, 100, 100, 10)
	queue := []*trace.Job{
		job(3, 20, 50, 50, 2), // fits: selectable
		job(4, 30, 50, 50, 8), // too wide for 4 free: masked
	}
	cfg := ObsConfig{MaxObs: 8, SkipAction: true}
	o := buildObs(cfg, st, head, queue)

	if o.Mask[0] {
		t.Fatal("head job must be masked (§3.2)")
	}
	if o.Row(0)[featRJob] != 1 {
		t.Fatal("head row must carry the rjob flag")
	}
	if !o.Mask[1] {
		t.Fatal("fitting job must be selectable")
	}
	if o.Mask[2] {
		t.Fatal("too-wide job must be masked")
	}
	if !o.Mask[o.Skip] {
		t.Fatal("skip slot must be selectable when enabled")
	}
	if o.Selectable != 1 {
		t.Fatalf("Selectable = %d, want 1", o.Selectable)
	}
	// no padding: the skip slot follows the last queued job
	if o.Skip != 3 || len(o.Mask) != 4 || len(o.Jobs) != 4 || len(o.Cells) != 4*JobFeatures {
		t.Fatalf("skip slot %d, %d mask rows, %d job rows, %d cells; want the skip slot at 3 of 4 rows",
			o.Skip, len(o.Mask), len(o.Jobs), len(o.Cells))
	}
}

func TestObservationFeatureRanges(t *testing.T) {
	st := &fakeState{now: 1000, free: 8, total: 16,
		running: []backfill.Running{{Job: job(1, 0, 5000, 5000, 8), Start: 0}}}
	head := job(2, 10, 100, 100, 16)
	queue := []*trace.Job{job(3, 50, 123456, 234567, 4)}
	o := buildObs(ObsConfig{MaxObs: 4, SkipAction: true}, st, head, queue)
	for i := range o.Mask {
		for k, v := range o.Row(i) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("row %d feature %d out of [0,1]: %v", i, k, v)
			}
		}
	}
	// free fraction appended to every job row (§3.2)
	if o.Row(0)[featFree] != 0.5 || o.Row(1)[featFree] != 0.5 {
		t.Fatal("free fraction not appended to job vectors")
	}
}

func TestObservationCutsByFCFS(t *testing.T) {
	st := &fakeState{now: 1000, free: 1, total: 16,
		running: []backfill.Running{{Job: job(1, 0, 5000, 5000, 15), Start: 0}}}
	head := job(2, 500, 100, 100, 16)
	var queue []*trace.Job
	for i := 0; i < 20; i++ {
		queue = append(queue, job(10+i, int64(20-i), 50, 50, 1)) // later IDs submitted earlier
	}
	cfg := ObsConfig{MaxObs: 5, SkipAction: false}
	o := buildObs(cfg, st, head, queue)
	// Rows: head + the 4 earliest-submitted jobs (IDs 29, 28, 27, 26).
	if o.Jobs[0] != head {
		t.Fatal("head must occupy row 0")
	}
	for i, wantID := range []int{29, 28, 27, 26} {
		if o.Jobs[i+1] == nil || o.Jobs[i+1].ID != wantID {
			t.Fatalf("row %d holds job %+v, want ID %d (FCFS cut, §3.3.2)", i+1, o.Jobs[i+1], wantID)
		}
	}
}

func TestObservationSafeFlag(t *testing.T) {
	// Running job ends (per request) at t=100; head needs the full machine.
	st := &fakeState{now: 0, free: 2, total: 10,
		running: []backfill.Running{{Job: job(1, 0, 100, 100, 8), Start: 0}}}
	head := job(2, 0, 50, 50, 10)
	short := job(3, 0, 50, 50, 2)  // ends at 50 <= shadow 100: safe
	long := job(4, 0, 500, 500, 2) // overruns shadow, extra=0: unsafe
	o := buildObs(ObsConfig{MaxObs: 8}, st, head, []*trace.Job{short, long})
	if o.Row(1)[featSafe] != 1 {
		t.Fatal("short job should be flagged EASY-safe")
	}
	if o.Row(2)[featSafe] != 0 {
		t.Fatal("long job should not be flagged safe")
	}
}

func TestAgentGreedyPicksArgmax(t *testing.T) {
	a := NewAgent(ObsConfig{MaxObs: 8, SkipAction: false}, NetworkSpec{}, backfill.RequestTime{}, 3)
	st := &fakeState{now: 0, free: 2, total: 10,
		running: []backfill.Running{{Job: job(1, 0, 100, 100, 8), Start: 0}}}
	head := job(2, 0, 50, 50, 10)
	queue := []*trace.Job{job(3, 0, 50, 50, 2), job(4, 0, 60, 60, 2)}
	a.Backfill(st, head, queue)
	// with 2 free procs, exactly one of the two 2-proc jobs can start
	if len(st.started) != 1 {
		t.Fatalf("agent started %d jobs, want 1", len(st.started))
	}
}

func TestAgentNeverStartsHeadOrMasked(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		a := NewAgent(ObsConfig{MaxObs: 8, SkipAction: true}, NetworkSpec{}, backfill.RequestTime{}, seed)
		worker := a.CloneForRollout(stats.NewRNG(seed), -5)
		st := &fakeState{now: 0, free: 4, total: 16,
			running: []backfill.Running{{Job: job(1, 0, 100, 100, 12), Start: 0}}}
		head := job(2, 0, 50, 50, 16)
		queue := []*trace.Job{job(3, 0, 50, 50, 2), job(4, 0, 50, 50, 8)}
		worker.Backfill(st, head, queue)
		for _, s := range st.started {
			if s.ID == 2 {
				t.Fatal("agent backfilled the head job")
			}
			if s.ID == 4 {
				t.Fatal("agent started a job wider than the free processors")
			}
		}
	}
}

func TestAgentRecordsSteps(t *testing.T) {
	a := NewAgent(ObsConfig{MaxObs: 8, SkipAction: true}, NetworkSpec{}, backfill.RequestTime{}, 5)
	worker := a.CloneForRollout(stats.NewRNG(7), -5)
	st := &fakeState{now: 0, free: 4, total: 16,
		running: []backfill.Running{{Job: job(1, 0, 100, 100, 12), Start: 0}}}
	head := job(2, 0, 50, 50, 16)
	queue := []*trace.Job{job(3, 0, 50, 50, 2), job(4, 0, 50, 50, 2)}
	worker.Backfill(st, head, queue)
	traj, _ := worker.takeTrajectory(0.5)
	if len(traj.Steps) == 0 {
		t.Fatal("no steps recorded during training rollout")
	}
	last := traj.Steps[len(traj.Steps)-1]
	if last.Reward < 0.5-5.0-1e-9 || last.Reward > 0.5+1e-9 {
		t.Fatalf("terminal reward %v not applied sensibly", last.Reward)
	}
	for _, s := range traj.Steps {
		if !s.Mask[s.Action] {
			t.Fatal("recorded action was masked")
		}
		if s.LogP > 0 {
			t.Fatalf("log probability %v > 0", s.LogP)
		}
	}
}

func TestAgentViolationPenalty(t *testing.T) {
	// Construct a state where the only candidate delays the head: free 2,
	// running job ends at 100, head needs 10 (shadow=100, extra=0), the
	// candidate runs 500s on 2 procs -> overruns shadow and eats the head's
	// processors.
	a := NewAgent(ObsConfig{MaxObs: 4, SkipAction: false}, NetworkSpec{}, backfill.RequestTime{}, 1)
	worker := a.CloneForRollout(stats.NewRNG(2), -5)
	st := &fakeState{now: 0, free: 2, total: 10,
		running: []backfill.Running{{Job: job(1, 0, 100, 100, 8), Start: 0}}}
	head := job(2, 0, 50, 50, 10)
	long := job(3, 0, 500, 500, 2)
	worker.Backfill(st, head, []*trace.Job{long})
	traj, viol := worker.takeTrajectory(0)
	if len(st.started) != 1 {
		t.Fatalf("agent started %d jobs", len(st.started))
	}
	if viol != 1 {
		t.Fatalf("violations = %d, want 1", viol)
	}
	found := false
	for _, s := range traj.Steps {
		if s.Reward == -5 {
			found = true
		}
	}
	if !found {
		t.Fatal("violation penalty not credited to a step")
	}
}

func TestAgentInSimulator(t *testing.T) {
	tr := trace.SyntheticSDSCSP2(200, 8)
	a := NewAgent(ObsConfig{MaxObs: 16, SkipAction: true}, NetworkSpec{}, backfill.RequestTime{}, 3)
	res, err := sim.Run(tr, sim.Config{Policy: sched.FCFS{}, Backfiller: a})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 200 {
		t.Fatalf("agent-backfilled run finished %d/200 jobs", len(res.Records))
	}
}

func TestTrainerSmoke(t *testing.T) {
	tr := trace.SyntheticSDSCSP2(600, 4)
	cfg := QuickTrainConfig()
	cfg.TrajPerEpoch = 6
	cfg.EpisodeLen = 80
	cfg.Obs.MaxObs = 16
	cfg.PPO.PiIters = 5
	cfg.PPO.VIters = 5
	cfg.Seed = 11
	cfg.Workers = 2
	trainer, err := NewTrainer(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := trainer.Train(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("%d epochs recorded", len(hist))
	}
	for _, h := range hist {
		if h.Steps == 0 {
			t.Fatal("epoch recorded no decisions")
		}
		if math.IsNaN(h.MeanReward) || math.IsInf(h.MeanReward, 0) {
			t.Fatalf("non-finite reward %v", h.MeanReward)
		}
		if h.BaselineBSLD < 1 {
			t.Fatalf("baseline bsld %v < 1", h.BaselineBSLD)
		}
	}
}

func TestTrainerDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) EpochStats {
		tr := trace.SyntheticSDSCSP2(400, 4)
		cfg := QuickTrainConfig()
		cfg.TrajPerEpoch = 4
		cfg.EpisodeLen = 60
		cfg.Obs.MaxObs = 16
		cfg.PPO.PiIters = 3
		cfg.PPO.VIters = 3
		cfg.PPO.MiniBatch = 0
		cfg.Seed = 5
		cfg.Workers = workers
		trainer, err := NewTrainer(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// ppo.Update sums each worker's share of the batch separately, so
		// its floats agree across PPO worker counts only to rounding. One
		// PPO worker on both sides leaves the rollout fan-out as the only
		// difference, and every EpochStats field, Update too, must match.
		trainer.opt.Cfg.Workers = 1
		st, err := trainer.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if a, b := run(1), run(4); a != b {
		t.Fatalf("epoch differs across worker counts:\n%+v\n%+v", a, b)
	}
}

func TestTrainerRejectsEmptyTrace(t *testing.T) {
	if _, err := NewTrainer(&trace.Trace{Name: "x", Procs: 4}, QuickTrainConfig()); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestEvaluateStrategyAndAgentUseSameSequences(t *testing.T) {
	tr := trace.SyntheticSDSCSP2(2000, 6)
	cfg := EvalConfig{Sequences: 3, SeqLen: 150, Seed: 99}
	easy := backfill.NewEASY(backfill.RequestTime{})
	m1, per1, err := EvaluateStrategy(tr, sched.FCFS{}, easy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, per2, err := EvaluateStrategy(tr, sched.FCFS{}, easy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("evaluation not reproducible")
	}
	for i := range per1 {
		if per1[i] != per2[i] {
			t.Fatal("per-sequence results differ")
		}
	}
	a := NewAgent(ObsConfig{MaxObs: 16}, NetworkSpec{}, backfill.RequestTime{}, 1)
	am, aper, err := EvaluateAgent(a, tr, sched.FCFS{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(aper) != 3 || am <= 0 {
		t.Fatalf("agent eval: mean %v over %d sequences", am, len(aper))
	}
}

func TestModelRoundTrip(t *testing.T) {
	a := NewAgent(ObsConfig{MaxObs: 16, SkipAction: true}, NetworkSpec{}, backfill.RequestTime{}, 9)
	m := ExportModel(a, "FCFS", "SDSC-SP2", 42)
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TrainedOn != "SDSC-SP2" || got.BasePolicy != "FCFS" || got.Epochs != 42 {
		t.Fatalf("metadata lost: %+v", got)
	}
	b, err := got.Agent()
	if err != nil {
		t.Fatal(err)
	}
	// identical behaviour on an identical observation
	st := &fakeState{now: 0, free: 4, total: 16,
		running: []backfill.Running{{Job: job(1, 0, 100, 100, 12), Start: 0}}}
	head := job(2, 0, 50, 50, 16)
	queue := []*trace.Job{job(3, 0, 50, 50, 2), job(4, 0, 70, 70, 2)}
	est := backfill.RequestTime{}
	res := backfill.ComputeReservation(st, head, est)
	obs := BuildObservation(a.Obs, st, head, queue, est, res)
	pa := a.distribution(obs)
	pb := b.distribution(obs)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("loaded model differs at action %d: %v vs %v", i, pa[i], pb[i])
		}
	}
}

func TestModelAgentValidation(t *testing.T) {
	if _, err := (Model{}).Agent(); err == nil {
		t.Fatal("empty model accepted")
	}
	a := NewAgent(ObsConfig{MaxObs: 16}, NetworkSpec{}, nil, 1)
	m := ExportModel(a, "FCFS", "x", 1)
	m.Obs.MaxObs = 64 // now value net no longer matches
	if _, err := m.Agent(); err == nil {
		t.Fatal("obs/value shape mismatch accepted")
	}
	m2 := ExportModel(a, "FCFS", "x", 1)
	m2.Estimator = "bogus"
	if _, err := m2.Agent(); err == nil {
		t.Fatal("unknown estimator accepted")
	}
}

// TestModelAgentRejectsWideOutputs checks that a policy or value network
// with more than one output does not load: the agent would read only the
// first and ignore the rest.
func TestModelAgentRejectsWideOutputs(t *testing.T) {
	base := ExportModel(NewAgent(ObsConfig{MaxObs: 4}, NetworkSpec{}, nil, 1), "FCFS", "x", 1)
	widen := func(n *nn.MLP) *nn.MLP {
		sizes := slices.Clone(n.Sizes)
		sizes[len(sizes)-1] = 2
		return nn.NewMLP(sizes, nn.ReLU, stats.NewRNG(2))
	}
	policy, value := base, base
	policy.Policy = widen(base.Policy)
	value.Value = widen(base.Value)
	for name, m := range map[string]Model{"policy": policy, "value": value} {
		if _, err := m.Agent(); err == nil {
			t.Errorf("a %s network with two outputs loaded", name)
		}
	}
	if _, err := base.Agent(); err != nil {
		t.Fatal(err)
	}
}

// TestReadModelRejectsUnknownActivation checks that a model file naming an
// activation the networks cannot compute fails to load, where it used to
// load and panic at the agent's first decision.
func TestReadModelRejectsUnknownActivation(t *testing.T) {
	file, err := os.ReadFile("testdata/agent_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadModel(bytes.NewReader(file)); err != nil {
		t.Fatal(err)
	}
	gelu := bytes.Replace(file, []byte(`"act": "relu"`), []byte(`"act": "gelu"`), 1)
	if bytes.Equal(gelu, file) {
		t.Fatal("the model file names no relu activation")
	}
	if _, err := ReadModel(bytes.NewReader(gelu)); err == nil {
		t.Fatal("a model with a gelu network loaded")
	}
}

func TestNewAgentUsesPaperArchitecture(t *testing.T) {
	a := NewAgent(DefaultObsConfig(), NetworkSpec{}, nil, 1)
	wantKernel := []int{JobFeatures, 32, 16, 8, 1}
	for i, s := range wantKernel {
		if a.Policy.Sizes[i] != s {
			t.Fatalf("kernel sizes %v, want %v", a.Policy.Sizes, wantKernel)
		}
	}
	if a.Value.Sizes[0] != 129*JobFeatures {
		t.Fatalf("value input %d, want %d", a.Value.Sizes[0], 129*JobFeatures)
	}
}

// The headline smoke test: on a small workload the quick configuration must
// produce an agent whose greedy policy is at least competitive with (not
// catastrophically worse than) random behaviour, and training must improve
// the mean reward over epochs on average.
func TestTrainingImprovesReward(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	tr := trace.SyntheticSDSCSP2(1500, 10)
	cfg := QuickTrainConfig()
	cfg.TrajPerEpoch = 12
	cfg.EpisodeLen = 100
	cfg.Obs.MaxObs = 16
	cfg.PPO.PiIters = 15
	cfg.PPO.VIters = 15
	cfg.Seed = 21
	trainer, err := NewTrainer(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := trainer.Train(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	early := (hist[0].MeanReward + hist[1].MeanReward) / 2
	late := (hist[len(hist)-2].MeanReward + hist[len(hist)-1].MeanReward) / 2
	if late < early-0.3 {
		t.Fatalf("reward regressed badly during training: early %.3f late %.3f", early, late)
	}
}
