package backfill

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// TestPredictorMatchesNaiveReference requires the planner-backed Predictor
// to project exactly the oracle's queue-order base plan.
func TestPredictorMatchesNaiveReference(t *testing.T) {
	rng := stats.NewRNG(41)
	var pred Predictor
	for trial := 0; trial < 60; trial++ {
		total := 4 + int(rng.Uint64()%13)
		st := &memState{now: int64(rng.Uint64() % 1000), free: total, total: total}
		nRun := int(rng.Uint64() % 5)
		for i := 0; i < nRun; i++ {
			p := 1 + int(rng.Uint64()%uint64(total))
			if st.free < p {
				break
			}
			run := 10 + int64(rng.Uint64()%500)
			j := job(100+i, 0, run, run+int64(rng.Uint64()%100), p)
			start := st.now - int64(rng.Uint64()%600) // may be overdue
			st.running = append(st.running, Running{Job: j, Start: start})
			st.free -= p
		}
		var queue []*trace.Job
		nQ := 1 + int(rng.Uint64()%8)
		for i := 0; i < nQ; i++ {
			run := 5 + int64(rng.Uint64()%400)
			queue = append(queue, job(200+i, st.now, run, run, 1+int(rng.Uint64()%uint64(total))))
		}

		got := pred.Project(st, RequestTime{}, queue, nil)
		want := oracleMachine(st, RequestTime{}).Plan(queue)
		if len(got) != len(queue) {
			t.Fatalf("trial %d: %d projections for %d queued jobs", trial, len(got), len(queue))
		}
		for i := range got {
			if got[i].Job != queue[i] {
				t.Fatalf("trial %d: projection %d is for job %d, want %d", trial, i, got[i].Job.ID, queue[i].ID)
			}
			if got[i].Start != want[i] {
				t.Fatalf("trial %d: job %d projected start %d, oracle %d (now=%d total=%d)",
					trial, queue[i].ID, got[i].Start, want[i], st.now, total)
			}
		}
	}
}

func TestPredictorEmptyQueue(t *testing.T) {
	var pred Predictor
	st := &memState{now: 5, free: 8, total: 8}
	if out := pred.Project(st, RequestTime{}, nil, nil); len(out) != 0 {
		t.Fatalf("empty queue projected %d entries", len(out))
	}
}

func TestPredictorImmediateFit(t *testing.T) {
	var pred Predictor
	st := &memState{now: 7, free: 8, total: 8}
	q := []*trace.Job{job(1, 7, 10, 10, 4), job(2, 7, 10, 10, 4), job(3, 7, 10, 10, 4)}
	out := pred.Project(st, RequestTime{}, q, nil)
	// Jobs 1 and 2 fill the machine immediately; job 3 waits for the first
	// reservations to end at 17.
	if out[0].Start != 7 || out[1].Start != 7 || out[2].Start != 17 {
		t.Fatalf("starts %d/%d/%d, want 7/7/17", out[0].Start, out[1].Start, out[2].Start)
	}
}
