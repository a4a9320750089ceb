package core

import (
	"math"
	"testing"

	"repro/internal/backfill"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/trace"
)

func TestObservationWindowFeature(t *testing.T) {
	// Shadow at t=100 -> window 100s. A 50s job uses half the window; a 500s
	// job saturates the feature at 1.
	st := &fakeState{now: 0, free: 2, total: 10,
		running: []backfill.Running{{Job: job(1, 0, 100, 100, 8), Start: 0}}}
	head := job(2, 0, 50, 50, 10)
	half := job(3, 0, 50, 50, 2)
	over := job(4, 0, 500, 500, 2)
	o := buildObs(ObsConfig{MaxObs: 8}, st, head, []*trace.Job{half, over})
	if got := o.Row(1)[featWindow]; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("half-window feature = %v, want 0.5", got)
	}
	if got := o.Row(2)[featWindow]; got != 1 {
		t.Fatalf("over-window feature = %v, want 1 (capped)", got)
	}
}

func TestObservationExtraFitFeature(t *testing.T) {
	// Running 6 procs until 100; head needs 8 -> shadow 100, extra = (4+6)-8 = 2.
	st := &fakeState{now: 0, free: 4, total: 10,
		running: []backfill.Running{{Job: job(1, 0, 100, 100, 6), Start: 0}}}
	head := job(2, 0, 50, 50, 8)
	narrow := job(3, 0, 500, 500, 2) // fits the 2 extra procs
	wide := job(4, 0, 500, 500, 4)   // does not
	o := buildObs(ObsConfig{MaxObs: 8}, st, head, []*trace.Job{narrow, wide})
	if o.Row(1)[featExtraFit] != 1 {
		t.Fatal("narrow job should have the extra-fit flag")
	}
	if o.Row(2)[featExtraFit] != 0 {
		t.Fatal("wide job should not have the extra-fit flag")
	}
	// extra-fit implies EASY-safe even for long jobs
	if o.Row(1)[featSafe] != 1 {
		t.Fatal("extra-fitting long job should be safe")
	}
}

func TestSkipRowAggregates(t *testing.T) {
	st := &fakeState{now: 0, free: 4, total: 8,
		running: []backfill.Running{{Job: job(1, 0, 100, 100, 4), Start: 0}}}
	head := job(2, 0, 50, 50, 8)
	safe := job(3, 0, 50, 50, 2)     // ends before shadow
	unsafe := job(4, 0, 500, 500, 4) // overruns, too wide for extra
	o := buildObs(ObsConfig{MaxObs: 8, SkipAction: true}, st, head, []*trace.Job{safe, unsafe})
	skip := o.Row(o.Skip)
	if skip[featSkip] != 1 {
		t.Fatal("skip indicator not set")
	}
	if math.Abs(skip[featSafe]-0.5) > 1e-12 {
		t.Fatalf("skip safe-fraction = %v, want 0.5 (1 of 2 candidates safe)", skip[featSafe])
	}
	if skip[featFree] != 0.5 {
		t.Fatalf("skip free fraction = %v, want 0.5", skip[featFree])
	}
	if math.Abs(skip[featProcs]-2.0/8.0) > 1e-12 {
		t.Fatalf("skip queue-fill = %v, want 0.25", skip[featProcs])
	}
}

func TestSkipRowZeroWhenDisabled(t *testing.T) {
	st := &fakeState{now: 0, free: 4, total: 8,
		running: []backfill.Running{{Job: job(1, 0, 100, 100, 4), Start: 0}}}
	head := job(2, 0, 50, 50, 8)
	o := buildObs(ObsConfig{MaxObs: 8, SkipAction: false}, st, head, []*trace.Job{job(3, 0, 50, 50, 2)})
	if o.Mask[o.Skip] {
		t.Fatal("skip selectable while disabled")
	}
	for _, v := range o.Row(o.Skip) {
		if v != 0 {
			t.Fatal("disabled skip row should stay zero")
		}
	}
}

func TestObservationZeroWindowWhenHeadFits(t *testing.T) {
	// Head fits immediately: shadow == now, window 0 -> feature saturates.
	st := &fakeState{now: 50, free: 8, total: 8}
	head := job(1, 0, 50, 50, 4)
	o := buildObs(ObsConfig{MaxObs: 4}, st, head, nil)
	if o.Row(0)[featWindow] != 1 {
		t.Fatalf("zero-window feature = %v, want 1", o.Row(0)[featWindow])
	}
}

// TestObservationCompactRows pins the observation's layout over fuzzed
// queues — empty, short, longer than MaxObs-1 — with the skip action on and
// off, and with one observation reused across decisions: the head and the
// observed queue, then the skip slot, and nothing after it. Each decision
// the agent takes on it is the one it would take on the same rows padded to
// Rows() with the skip slot last: every probability bit for bit, the argmax
// and a categorical draw.
func TestObservationCompactRows(t *testing.T) {
	rng := stats.NewRNG(11)
	est := backfill.RequestTime{}
	for _, skip := range []bool{true, false} {
		cfg := ObsConfig{MaxObs: 8, SkipAction: skip}
		a := NewAgent(cfg, NetworkSpec{}, est, 3)
		rows := cfg.Rows()
		padCells, padMask := make([]float64, cfg.FlatDim()), make([]bool, rows)
		padBatch, gather := nn.NewBatchCache(a.Policy, rows), make([]int, rows)
		padScores, padProbs := make([]float64, rows), make([]float64, rows)
		o := NewObservation(cfg)
		for trial := 0; trial < 200; trial++ {
			st := &fakeState{now: 1000, free: rng.Intn(9), total: 16,
				running: []backfill.Running{{Job: job(1, 0, 5000, 5000, 8), Start: 0}}}
			head := job(2, 10, 100, 100, 16)
			queue := make([]*trace.Job, rng.Intn(14)) // 0 .. 13 against 7 observable
			for i := range queue {
				queue[i] = job(10+i, int64(rng.Intn(900)), 60, int64(1+rng.Intn(2000)), 1+rng.Intn(8))
			}
			BuildObservationInto(cfg, st, head, queue, est, backfill.ComputeReservation(st, head, est), o)

			if want := min(len(queue), cfg.MaxObs-1) + 1; o.Skip != want {
				t.Fatalf("skip=%v queue=%d: skip slot %d, want %d", skip, len(queue), o.Skip, want)
			}
			if n := o.Skip + 1; len(o.Mask) != n || len(o.Jobs) != n || len(o.Cells) != n*JobFeatures {
				t.Fatalf("skip=%v queue=%d: %d mask rows, %d job rows, %d cells, want %d rows",
					skip, len(queue), len(o.Mask), len(o.Jobs), len(o.Cells), n)
			}
			zero := func(row []float64) bool {
				for _, v := range row {
					if v != 0 {
						return false
					}
				}
				return true
			}
			for i := 0; i < o.Skip; i++ {
				if o.Jobs[i] == nil || zero(o.Row(i)) {
					t.Fatalf("skip=%v queue=%d: row %d is empty", skip, len(queue), i)
				}
			}
			if o.Jobs[o.Skip] != nil || zero(o.Row(o.Skip)) == skip || o.Mask[o.Skip] != skip {
				t.Fatalf("skip=%v: skip slot job %v, zero %v, selectable %v", skip, o.Jobs[o.Skip], !skip, o.Mask[o.Skip])
			}
			if o.Selectable == 0 && !skip {
				continue // no decision to take
			}

			clear(padCells)
			clear(padMask)
			copy(padCells, o.Cells[:o.Skip*JobFeatures])
			copy(padCells[(rows-1)*JobFeatures:], o.Row(o.Skip))
			copy(padMask, o.Mask[:o.Skip])
			padMask[rows-1] = o.Mask[o.Skip]
			padded := func(i int) int { // the padded row of observation row i
				if i == o.Skip {
					return rows - 1
				}
				return i
			}
			want, _ := a.Policy.ScoreMasked(padCells, padMask, padBatch, gather, padScores, padProbs)
			got := a.distribution(o)
			for i, p := range got {
				if math.Float64bits(p) != math.Float64bits(want[padded(i)]) {
					t.Fatalf("skip=%v queue=%d: row %d probability %v, padded %v", skip, len(queue), i, p, want[padded(i)])
				}
			}
			if g, w := nn.Argmax(got), nn.Argmax(want); padded(g) != w {
				t.Fatalf("skip=%v queue=%d: argmax row %d, padded %d", skip, len(queue), g, w)
			}
			seed := uint64(trial)
			if g, w := nn.SampleCategorical(got, stats.NewRNG(seed)), nn.SampleCategorical(want, stats.NewRNG(seed)); padded(g) != w {
				t.Fatalf("skip=%v queue=%d: sampled row %d, padded %d", skip, len(queue), g, w)
			}
		}
	}
}

// TestRecordedStepsCarryOccupancy checks the hand-over to ppo: every recorded
// step is the observation the agent decided on — its cells and mask as built,
// Live placing the skip slot last in the critic's input, the action as
// sampled — and is smaller than the critic's input. The decisions are
// replayed on a second state to rebuild each observation.
func TestRecordedStepsCarryOccupancy(t *testing.T) {
	cfg := ObsConfig{MaxObs: 8, SkipAction: true}
	est := backfill.RequestTime{}
	a := NewAgent(cfg, NetworkSpec{}, est, 5)
	worker := a.CloneForRollout(stats.NewRNG(7), -5)
	mkState := func() *fakeState {
		return &fakeState{now: 0, free: 6, total: 16,
			running: []backfill.Running{{Job: job(1, 0, 100, 100, 10), Start: 0}}}
	}
	head := job(2, 0, 50, 50, 16)
	queue := []*trace.Job{job(3, 0, 50, 50, 2), job(4, 0, 50, 50, 2), job(5, 0, 50, 50, 2)}
	worker.Backfill(mkState(), head, queue)
	traj, _ := worker.takeTrajectory(0)
	if len(traj.Steps) == 0 {
		t.Fatal("no steps recorded")
	}
	st, remaining := mkState(), append([]*trace.Job(nil), queue...)
	for si, s := range traj.Steps {
		o := BuildObservation(cfg, st, head, remaining, est, backfill.ComputeReservation(st, head, est))
		if want := (nn.Live{Head: o.Skip * JobFeatures, Tail: JobFeatures}); s.Live != want {
			t.Fatalf("step %d: occupancy %+v, want %+v", si, s.Live, want)
		}
		if len(s.FlatObs) != len(o.Cells) || len(s.FlatObs) >= cfg.FlatDim() {
			t.Fatalf("step %d: %d cells recorded for a %d-cell observation of a %d-cell critic input",
				si, len(s.FlatObs), len(o.Cells), cfg.FlatDim())
		}
		if s.Obs != nil {
			t.Fatalf("step %d: recorded a row-header slice", si)
		}
		for i, v := range o.Cells {
			if s.FlatObs[i] != v {
				t.Fatalf("step %d: cell %d = %v, want %v", si, i, s.FlatObs[i], v)
			}
		}
		if len(s.Mask) != len(o.Mask) {
			t.Fatalf("step %d: mask over %d rows, want %d", si, len(s.Mask), len(o.Mask))
		}
		for i, m := range o.Mask {
			if s.Mask[i] != m {
				t.Fatalf("step %d: mask[%d] = %v, want %v", si, i, s.Mask[i], m)
			}
		}
		if s.Action < 0 || s.Action > o.Skip || !s.Mask[s.Action] {
			t.Fatalf("step %d: action %d is not a selectable recorded row", si, s.Action)
		}
		if s.Action == o.Skip {
			if si != len(traj.Steps)-1 {
				t.Fatalf("step %d skipped but %d steps were recorded", si, len(traj.Steps))
			}
			break
		}
		started := o.Jobs[s.Action]
		st.StartJob(started)
		for i, j := range remaining {
			if j == started {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
	}
}

// TestObservationPriorityFeatureRange checks the priority feature p/(p+1)
// stays in (0, 1) up to the largest tier an SWF queue column can carry.
func TestObservationPriorityFeatureRange(t *testing.T) {
	st := &fakeState{now: 0, free: 10, total: 10}
	head := job(1, 0, 50, 50, 2)
	one := job(2, 0, 50, 50, 2)
	one.Priority = 1
	top := job(3, 0, 50, 50, 2)
	top.Priority = math.MaxInt32
	o := buildObs(ObsConfig{MaxObs: 8}, st, head, []*trace.Job{one, top})
	if got := o.Row(1)[featPriority]; got != 0.5 {
		t.Fatalf("priority 1 feature = %v, want 0.5", got)
	}
	if got := o.Row(2)[featPriority]; !(got > 0.5 && got < 1) {
		t.Fatalf("priority MaxInt32 feature = %v, want in (0.5, 1)", got)
	}
}
