package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/backfill"
	"repro/internal/ppo"
	"repro/internal/stats"
	"repro/internal/trace"
)

// allocFixture builds a decision point whose queue is cut to MaxObs: some
// selectable rows, some masked — the shape every per-decision hot-path call
// sees.
func allocFixture() (ObsConfig, *fakeState, *trace.Job, []*trace.Job, backfill.Estimator, backfill.Reservation) {
	st := &fakeState{now: 1000, free: 8, total: 32,
		running: []backfill.Running{{Job: job(1, 0, 5000, 5000, 24), Start: 0}}}
	head := job(2, 10, 100, 100, 32)
	var queue []*trace.Job
	for i := 0; i < 24; i++ {
		procs := 2
		if i%3 == 0 {
			procs = 16 // masked: wider than the free processors
		}
		queue = append(queue, job(10+i, int64(500-7*i), 60, 90, procs))
	}
	est := backfill.RequestTime{}
	res := backfill.ComputeReservation(st, head, est)
	return ObsConfig{MaxObs: 16, SkipAction: true}, st, head, queue, est, res
}

// TestBuildObservationIntoNoAllocs guards the reusable-buffer encode: after
// the first call the per-decision observation build is allocation-free (the
// make churn of the original BuildObservation is gone).
func TestBuildObservationIntoNoAllocs(t *testing.T) {
	cfg, st, head, queue, est, res := allocFixture()
	o := NewObservation(cfg)
	BuildObservationInto(cfg, st, head, queue, est, res, o) // warm the sort scratch
	if avg := testing.AllocsPerRun(200, func() {
		BuildObservationInto(cfg, st, head, queue, est, res, o)
	}); avg != 0 {
		t.Fatalf("BuildObservationInto allocates %v per run, want 0", avg)
	}
}

// TestBuildObservationIntoMatchesFresh pins that the reused path encodes
// exactly what a fresh BuildObservation does, including after a previous,
// differently-shaped decision left stale state in the buffers.
func TestBuildObservationIntoMatchesFresh(t *testing.T) {
	cfg, st, head, queue, est, res := allocFixture()
	o := NewObservation(cfg)
	// dirty the buffers with a full-queue decision first
	BuildObservationInto(cfg, st, head, queue, est, res, o)
	// then rebuild with a shorter queue: no stale row may survive
	short := queue[:3]
	got := BuildObservationInto(cfg, st, head, short, est, res, o)
	want := BuildObservation(cfg, st, head, short, est, res)
	if got.Selectable != want.Selectable || got.Skip != want.Skip {
		t.Fatalf("selectable/skip differ: got %d/%d want %d/%d",
			got.Selectable, got.Skip, want.Selectable, want.Skip)
	}
	if len(got.Cells) != len(want.Cells) || len(got.Mask) != len(want.Mask) || len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("shapes differ: got %d cells, %d mask, %d jobs, want %d, %d, %d",
			len(got.Cells), len(got.Mask), len(got.Jobs), len(want.Cells), len(want.Mask), len(want.Jobs))
	}
	for i := range want.Cells {
		if got.Cells[i] != want.Cells[i] {
			t.Fatalf("cell %d = %v, want %v", i, got.Cells[i], want.Cells[i])
		}
	}
	for i := range want.Mask {
		if got.Mask[i] != want.Mask[i] || got.Jobs[i] != want.Jobs[i] {
			t.Fatalf("mask/jobs differ at row %d", i)
		}
	}
}

// TestDistributionNoAllocs guards the evaluation-path decision: batched
// scoring plus masked softmax over reused scratch allocates nothing.
func TestDistributionNoAllocs(t *testing.T) {
	cfg, st, head, queue, est, res := allocFixture()
	a := NewAgent(cfg, NetworkSpec{}, est, 7)
	obs := BuildObservation(cfg, st, head, queue, est, res)
	if obs.Selectable == 0 {
		t.Fatal("fixture produced no selectable rows")
	}
	if avg := testing.AllocsPerRun(200, func() {
		a.distribution(obs)
	}); avg != 0 {
		t.Fatalf("distribution allocates %v per run, want 0", avg)
	}
}

// TestAgentEvalBackfillNoAllocs covers the whole greedy decision loop — the
// eval path Backfill: reservation, observation encode, batched scoring,
// argmax — which must not allocate once the scratch is warm. The fake state
// is reset (not rebuilt) between runs so only the agent's own allocations
// are counted.
func TestAgentEvalBackfillNoAllocs(t *testing.T) {
	cfg, _, head, queue, est, _ := allocFixture()
	a := NewAgent(cfg, NetworkSpec{}, est, 7)
	st := &fakeState{
		running: make([]backfill.Running, 1, 16),
		started: make([]*trace.Job, 0, 16),
	}
	runner := job(1, 0, 5000, 5000, 24)
	reset := func() {
		st.now, st.free, st.total = 1000, 8, 32
		st.running = st.running[:1]
		st.running[0] = backfill.Running{Job: runner, Start: 0}
		st.started = st.started[:0]
	}
	reset()
	a.Backfill(st, head, queue) // warm remaining/reservation scratch
	if avg := testing.AllocsPerRun(100, func() {
		reset()
		a.Backfill(st, head, queue)
	}); avg != 0 {
		t.Fatalf("eval Backfill allocates %v per run, want 0", avg)
	}
}

// TestRecordedDecisionFootprint gates what a training rollout keeps per
// decision: two allocations (cells, mask) whose bytes follow the rows the
// observation occupies, not MaxObs. The fixture queues eight jobs of which one
// fits, so every Backfill call records exactly one decision over nine occupied
// rows whatever it samples, and the same fixture must cost the same bytes at
// MaxObs 16 and at the paper's 128 (where the padded observation alone is
// 13.4 KB). The step slice is pre-sized so its amortised growth is not in the
// count.
func TestRecordedDecisionFootprint(t *testing.T) {
	head := job(2, 10, 100, 100, 32)
	queue := []*trace.Job{job(10, 500, 60, 90, 2)}
	for i := 1; i < 8; i++ {
		queue = append(queue, job(10+i, int64(500-7*i), 60, 90, 16)) // wider than the free processors
	}
	runner := job(1, 0, 5000, 5000, 24)
	const runs = 200

	measureOnce := func(maxObs int) (bytes, allocs float64, step ppo.Step) {
		a := NewAgent(ObsConfig{MaxObs: maxObs, SkipAction: true}, NetworkSpec{}, backfill.RequestTime{}, 7)
		w := a.CloneForRollout(stats.NewRNG(3), -2)
		w.rec.steps = make([]ppo.Step, 0, runs+1)
		st := &fakeState{running: make([]backfill.Running, 1, 4), started: make([]*trace.Job, 0, 4)}
		reset := func() {
			st.now, st.free, st.total = 1000, 8, 32
			st.running = st.running[:1]
			st.running[0] = backfill.Running{Job: runner, Start: 0}
			st.started = st.started[:0]
		}
		reset()
		w.Backfill(st, head, queue) // warm remaining/reservation scratch
		var m0, m1 runtime.MemStats
		runtime.GC() // settle the collector's own work before the window opens
		runtime.ReadMemStats(&m0)
		allocs = testing.AllocsPerRun(runs-1, func() { // runs calls, counting its own warm-up
			reset()
			w.Backfill(st, head, queue)
		})
		runtime.ReadMemStats(&m1)
		if got := len(w.rec.steps) - 1; got != runs {
			t.Fatalf("MaxObs %d: %d decisions recorded over %d calls, fixture wants one each", maxObs, got, runs)
		}
		return float64(m1.TotalAlloc-m0.TotalAlloc) / runs, allocs, w.rec.steps[runs]
	}
	// Background allocations (the runtime's, the race detector's) only ever
	// add to a window, so the least of three is the decision's own cost.
	measure := func(maxObs int) (bytes, allocs float64, step ppo.Step) {
		bytes, allocs = math.Inf(1), math.Inf(1)
		for attempt := 0; attempt < 3; attempt++ {
			b, n, s := measureOnce(maxObs)
			bytes, allocs, step = min(bytes, b), min(allocs, n), s
		}
		return bytes, allocs, step
	}

	small, smallAllocs, _ := measure(16)
	paper, paperAllocs, step := measure(128)
	if rows := len(queue) + 2; len(step.Mask) != rows || len(step.FlatObs) != rows*JobFeatures {
		t.Fatalf("recorded %d cells and %d mask entries, want %d rows (head, queue, skip)", len(step.FlatObs), len(step.Mask), rows)
	}
	// one eighth on top for the allocator's size classes
	bound := float64(8*len(step.FlatObs)+len(step.Mask))*9/8 + 64
	if paper > bound || paperAllocs > 2 || smallAllocs > 2 {
		t.Fatalf("a recorded decision costs %.0f B in %.0f allocations (MaxObs 16: %.0f), want <= %.0f B in 2",
			paper, paperAllocs, smallAllocs, bound)
	}
	if math.Abs(paper-small) > 0.01*small { // the collector's own few allocations land in either count
		t.Fatalf("a recorded decision costs %.0f B at MaxObs 128 and %.0f B at MaxObs 16: footprint follows MaxObs", paper, small)
	}
}

// TestRolloutCloneFootprint gates what one training episode costs beyond its
// recorded steps: CloneForRollout plus the episode's takeTrajectory at the
// paper's MaxObs 128 allocate less than one 64-row block of the critic's
// 1,677-wide input (~0.86 MB). A clone keeps only the policy's per-decision
// scratch; ppo.Update runs the critic, so no clone holds a critic cache.
func TestRolloutCloneFootprint(t *testing.T) {
	head := job(2, 10, 100, 100, 32)
	queue := []*trace.Job{job(10, 500, 60, 90, 2), job(11, 493, 60, 90, 16)}
	runner := job(1, 0, 5000, 5000, 24)
	a := NewAgent(ObsConfig{MaxObs: 128, SkipAction: true}, NetworkSpec{}, backfill.RequestTime{}, 7)
	block := float64(64 * a.Obs.FlatDim() * 8)

	measureOnce := func() float64 {
		st := &fakeState{now: 1000, free: 8, total: 32,
			running: []backfill.Running{{Job: runner, Start: 0}}}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		w := a.CloneForRollout(stats.NewRNG(3), -2)
		w.Backfill(st, head, queue)
		traj, _ := w.takeTrajectory(1)
		runtime.ReadMemStats(&m1)
		if len(traj.Steps) == 0 {
			t.Fatal("the fixture recorded no decision")
		}
		return float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	// Background allocations only ever add to a window: take the least of three.
	bytes := math.Inf(1)
	for attempt := 0; attempt < 3; attempt++ {
		bytes = min(bytes, measureOnce())
	}
	if bytes >= block {
		t.Fatalf("a rollout clone and its trajectory allocate %.0f B, want < %.0f B (one 64-row critic block)", bytes, block)
	}
}
