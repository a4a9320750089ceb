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
	if got := o.Rows[1][featWindow]; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("half-window feature = %v, want 0.5", got)
	}
	if got := o.Rows[2][featWindow]; got != 1 {
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
	if o.Rows[1][featExtraFit] != 1 {
		t.Fatal("narrow job should have the extra-fit flag")
	}
	if o.Rows[2][featExtraFit] != 0 {
		t.Fatal("wide job should not have the extra-fit flag")
	}
	// extra-fit implies EASY-safe even for long jobs
	if o.Rows[1][featSafe] != 1 {
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
	skip := o.Rows[o.SkipRow]
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
	if o.Mask[o.SkipRow] {
		t.Fatal("skip selectable while disabled")
	}
	for _, v := range o.Rows[o.SkipRow] {
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
	if o.Rows[0][featWindow] != 1 {
		t.Fatalf("zero-window feature = %v, want 1", o.Rows[0][featWindow])
	}
}

// TestObservationOccupiedInvariant pins what the critic's kernels rely on:
// over fuzzed queues — empty, short, longer than MaxObs-1 — with the skip
// action on and off, and with one observation reused across decisions, rows
// [Occupied, SkipRow) are all zero and row Occupied-1 is not.
func TestObservationOccupiedInvariant(t *testing.T) {
	rng := stats.NewRNG(11)
	est := backfill.RequestTime{}
	for _, skip := range []bool{true, false} {
		cfg := ObsConfig{MaxObs: 8, SkipAction: skip}
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

			if want := min(len(queue), cfg.MaxObs-1) + 1; o.Occupied != want {
				t.Fatalf("skip=%v queue=%d: Occupied = %d, want %d", skip, len(queue), o.Occupied, want)
			}
			zero := func(row []float64) bool {
				for _, v := range row {
					if v != 0 {
						return false
					}
				}
				return true
			}
			for i := o.Occupied; i < o.SkipRow; i++ {
				if !zero(o.Rows[i]) {
					t.Fatalf("skip=%v queue=%d: padding row %d (Occupied %d) is not zero: %v", skip, len(queue), i, o.Occupied, o.Rows[i])
				}
			}
			if zero(o.Rows[o.Occupied-1]) {
				t.Fatalf("skip=%v queue=%d: last occupied row %d is all zero", skip, len(queue), o.Occupied-1)
			}
			if zero(o.Rows[o.SkipRow]) == skip {
				t.Fatalf("skip=%v: skip row zero = %v", skip, !skip)
			}
		}
	}
}

// TestRecordedStepsCarryOccupancy checks the hand-over to ppo: every recorded
// step is the compact form of the padded observation the agent decided on —
// the occupied head rows and the skip row back to back, Live placing them,
// mask and action renumbered onto those rows — and is smaller than it. The
// decisions are replayed on a second state to rebuild each padded observation.
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
		headCells := o.Occupied * JobFeatures
		if want := (nn.Live{Head: headCells, Tail: JobFeatures}); s.Live != want {
			t.Fatalf("step %d: occupancy %+v, want %+v", si, s.Live, want)
		}
		if len(s.FlatObs) != headCells+JobFeatures || len(s.FlatObs) >= cfg.FlatDim() {
			t.Fatalf("step %d: %d cells recorded for %d occupied rows of a %d-cell observation",
				si, len(s.FlatObs), o.Occupied, cfg.FlatDim())
		}
		if s.Obs != nil {
			t.Fatalf("step %d: recorded a row-header slice", si)
		}
		want := append(append([]float64(nil), o.Flat[:headCells]...), o.Rows[o.SkipRow]...)
		for i, v := range want {
			if s.FlatObs[i] != v {
				t.Fatalf("step %d: cell %d = %v, want %v", si, i, s.FlatObs[i], v)
			}
		}
		wantMask := append(append([]bool(nil), o.Mask[:o.Occupied]...), o.Mask[o.SkipRow])
		if len(s.Mask) != len(wantMask) {
			t.Fatalf("step %d: mask over %d rows, want %d", si, len(s.Mask), len(wantMask))
		}
		for i, m := range wantMask {
			if s.Mask[i] != m {
				t.Fatalf("step %d: mask[%d] = %v, want %v", si, i, s.Mask[i], m)
			}
		}
		if s.Action < 0 || s.Action > o.Occupied || !s.Mask[s.Action] {
			t.Fatalf("step %d: action %d is not a selectable recorded row", si, s.Action)
		}
		if s.Action == o.Occupied { // the skip slot follows the last occupied row
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
	if got := o.Rows[1][featPriority]; got != 0.5 {
		t.Fatalf("priority 1 feature = %v, want 0.5", got)
	}
	if got := o.Rows[2][featPriority]; !(got > 0.5 && got < 1) {
		t.Fatalf("priority MaxInt32 feature = %v, want in (0.5, 1)", got)
	}
}
