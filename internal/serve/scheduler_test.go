package serve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/backfill"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
)

// scriptOp is one step of a deterministic daemon script: advance the manual
// clock, then submit a job.
type scriptOp struct {
	advance time.Duration
	req     JobRequest
}

// makeScript builds a reproducible submission script.
func makeScript(seed uint64, n, maxProcs int, priorities bool) []scriptOp {
	rng := stats.NewRNG(seed)
	ops := make([]scriptOp, n)
	for i := range ops {
		run := 1 + int64(rng.Uint64()%600)
		op := scriptOp{
			advance: time.Duration(rng.Uint64()%30) * time.Second,
			req: JobRequest{
				Procs:   1 + int(rng.Uint64()%uint64(maxProcs)),
				Runtime: run,
				// Request left 0: the daemon defaults it to Runtime, giving
				// exact estimates — the regime where conservative predictions
				// are provably stable.
			},
		}
		if priorities {
			op.req.Priority = int(rng.Uint64() % 3)
		}
		ops[i] = op
	}
	return ops
}

func testConfig(clk Clock) Config {
	return Config{
		Name: "test", Procs: 32,
		Policy:     sched.FCFS{},
		Backfiller: backfill.NewConservative(backfill.RequestTime{}),
		Estimator:  backfill.RequestTime{},
		TimeScale:  1,
		Clock:      clk,
	}
}

// renderRecords canonicalizes a record history for byte comparison.
func renderRecords(recs []metrics.Record) string {
	var sb strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&sb, "%d %d %d %d %d\n", r.Job.ID, r.Job.Submit, r.Job.Procs, r.Start, r.End)
	}
	return sb.String()
}

// TestSchedulerPredictedStartNeverLater is the predicted-start consistency
// property: under conservative backfilling with exact runtime estimates, the
// /status predicted start of a waiting job never moves later as arrivals,
// starts and completions play out — and the job finally starts no later than
// its last prediction. (With overestimated requests early completions can
// produce Graham-style anomalies; exact estimates are the regime where
// conservative reservations are guarantees. See DESIGN.md §12.)
func TestSchedulerPredictedStartNeverLater(t *testing.T) {
	for _, seed := range []uint64{11, 33, 77} {
		ops := makeScript(seed, 250, 32, false)
		clk := NewManualClock(time.Unix(1700000000, 0))
		s, err := New(testConfig(clk))
		if err != nil {
			t.Fatal(err)
		}
		s.Start()

		last := map[int]int64{} // job -> latest observed prediction
		checkAll := func() {
			for id, prev := range last {
				st, err := s.Status(id)
				if err != nil {
					t.Fatal(err)
				}
				switch st.State {
				case "queued":
					if st.PredictedStart < 0 {
						continue
					}
					if st.PredictedStart > prev {
						t.Fatalf("seed %d: job %d predicted start moved later: %d -> %d", seed, id, prev, st.PredictedStart)
					}
					last[id] = st.PredictedStart
				case "running", "finished":
					if st.Start > prev {
						t.Fatalf("seed %d: job %d started at %d, later than last prediction %d", seed, id, st.Start, prev)
					}
					delete(last, id)
				default:
					t.Fatalf("seed %d: job %d in unexpected state %q", seed, id, st.State)
				}
			}
		}

		for _, op := range ops {
			clk.Advance(op.advance)
			res, err := s.Submit(op.req)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Started {
				if res.PredictedStart < 0 {
					t.Fatalf("seed %d: queued job %d got no prediction", seed, res.ID)
				}
				last[res.ID] = res.PredictedStart
			}
			checkAll()
		}
		clk.Advance(24 * time.Hour)
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		checkAll()
		if len(last) != 0 {
			t.Fatalf("seed %d: %d jobs never started", seed, len(last))
		}
		if _, err := s.Drain(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSchedulerDuplicateAckPredicts pins, through Scheduler.Submit, that a
// retried submission carries the queued job's predicted start, before and
// after the clock moves, and reports the start once the job has started.
func TestSchedulerDuplicateAckPredicts(t *testing.T) {
	clk := NewManualClock(time.Unix(1700000000, 0))
	s, err := New(testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain()
	if _, err := s.Submit(JobRequest{Procs: 32, Runtime: 500}); err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Procs: 4, Runtime: 100, IdemKey: "again"}
	first, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Started || first.PredictedStart != first.Submit+500 {
		t.Fatalf("ack %+v: want queued until %d", first, first.Submit+500)
	}
	for _, step := range []time.Duration{0, 200 * time.Second} {
		clk.Advance(step)
		dup, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Status(first.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !dup.Duplicate || dup.ID != first.ID || dup.Started || dup.PredictedStart != first.PredictedStart || st.PredictedStart != dup.PredictedStart {
			t.Fatalf("after %v: retry %+v, status %+v, want the original prediction %d", step, dup, st, first.PredictedStart)
		}
	}
	clk.Advance(300 * time.Second)
	dup, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Duplicate || !dup.Started || dup.PredictedStart != first.PredictedStart {
		t.Fatalf("retry after the start: %+v, want started at %d", dup, first.PredictedStart)
	}
}

// TestSchedulerPredictedStartPriorityException extends the property to
// priority scheduling: a waiting job's prediction may move later only when a
// strictly higher-priority job arrived since the previous observation — the
// one legitimate preemption of a conservative reservation.
func TestSchedulerPredictedStartPriorityException(t *testing.T) {
	for _, seed := range []uint64{13, 57} {
		ops := makeScript(seed, 250, 32, true)
		clk := NewManualClock(time.Unix(1700000000, 0))
		cfg := testConfig(clk)
		cfg.Scenario = sched.Scenario{Priorities: true}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()

		type obs struct {
			pred     int64
			arrivals int // global arrival count at observation time
		}
		last := map[int]obs{}
		prio := map[int]int{}
		var arrivalPrio []int // priority of every arrival, in order
		sawException := false

		checkAll := func() {
			for id, prev := range last {
				st, err := s.Status(id)
				if err != nil {
					t.Fatal(err)
				}
				switch st.State {
				case "queued":
					if st.PredictedStart < 0 {
						continue
					}
					if st.PredictedStart > prev.pred {
						higher := false
						for _, p := range arrivalPrio[prev.arrivals:] {
							if p > prio[id] {
								higher = true
								break
							}
						}
						if !higher {
							t.Fatalf("seed %d: job %d (prio %d) predicted start moved %d -> %d with no higher-priority arrival",
								seed, id, prio[id], prev.pred, st.PredictedStart)
						}
						sawException = true
					}
					last[id] = obs{st.PredictedStart, len(arrivalPrio)}
				case "running", "finished":
					delete(last, id)
				}
			}
		}

		for _, op := range ops {
			clk.Advance(op.advance)
			res, err := s.Submit(op.req)
			if err != nil {
				t.Fatal(err)
			}
			prio[res.ID] = op.req.Priority
			arrivalPrio = append(arrivalPrio, op.req.Priority)
			if !res.Started && res.PredictedStart >= 0 {
				last[res.ID] = obs{res.PredictedStart, len(arrivalPrio)}
			}
			checkAll()
		}
		if !sawException {
			t.Logf("seed %d: no priority preemption observed (property held vacuously)", seed)
		}
		if _, err := s.Drain(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSchedulerCancelAndStatus exercises cancellation and the status states
// through the command API.
func TestSchedulerCancelAndStatus(t *testing.T) {
	clk := NewManualClock(time.Unix(1700000000, 0))
	cfg := testConfig(clk)
	cfg.Procs = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	wide, err := s.Submit(JobRequest{Procs: 2, Runtime: 100})
	if err != nil || !wide.Started {
		t.Fatalf("first job should start immediately: %+v err %v", wide, err)
	}
	queued, err := s.Submit(JobRequest{Procs: 2, Runtime: 50})
	if err != nil || queued.Started {
		t.Fatalf("second job should queue: %+v err %v", queued, err)
	}
	if queued.PredictedStart != wide.Submit+100 {
		t.Fatalf("queued prediction %d, want %d", queued.PredictedStart, wide.Submit+100)
	}
	if ok, _ := s.CancelJob(queued.ID); !ok {
		t.Fatal("canceling queued job failed")
	}
	if ok, _ := s.CancelJob(wide.ID); ok {
		t.Fatal("canceling running job should fail")
	}
	if ok, _ := s.CancelJob(999); ok {
		t.Fatal("canceling unknown job should fail")
	}
	st, _ := s.Status(queued.ID)
	if st.State != "canceled" {
		t.Fatalf("state %q, want canceled", st.State)
	}
	st, _ = s.Status(wide.ID)
	if st.State != "running" {
		t.Fatalf("state %q, want running", st.State)
	}
	st, _ = s.Status(999)
	if st.State != "unknown" {
		t.Fatalf("state %q, want unknown", st.State)
	}
	clk.Advance(200 * time.Second)
	st, _ = s.Status(wide.ID)
	if st.State != "finished" || st.End != wide.Submit+100 {
		t.Fatalf("state %+v, want finished at %d", st, wide.Submit+100)
	}
	stats, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accepted != 2 || stats.Canceled != 1 || stats.Started != 1 || stats.Finished != 1 {
		t.Fatalf("stats %+v, want accepted 2 / canceled 1 / started 1 / finished 1", stats)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobRequest{Procs: 1, Runtime: 1}); err != ErrStopped {
		t.Fatalf("submit after drain: %v, want ErrStopped", err)
	}
}

// TestSchedulerPredictionAfterCancel pins that a cancel refreshes the
// predicted starts behind it within the same simulated second, on the
// primary that takes the cancel and on a follower that applies it from the
// stream. A fills the machine for 100 s; B (50 s) and C (10 s) queue behind
// it, each as wide as the machine, so C is predicted at A's end + 50 until B
// is canceled, and at A's end after.
func TestSchedulerPredictionAfterCancel(t *testing.T) {
	for _, row := range []string{"primary", "follower"} {
		t.Run(row, func(t *testing.T) {
			clk := NewManualClock(time.Unix(1700000000, 0))
			p, cfg, _, f := startReplicaPair(t, clk, 0, FollowConfig{}, nil)
			q := p
			if row == "follower" {
				q = f.Scheduler()
			}
			clk.Advance(time.Second)
			var ids [3]int
			var aEnd int64
			for i, run := range []int64{100, 50, 10} {
				res, err := p.Submit(JobRequest{Procs: cfg.Procs, Runtime: run})
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = res.ID
				if i == 0 {
					aEnd = res.Submit + run
				}
			}
			predC := func() int64 {
				t.Helper()
				waitCaughtUp(t, p, f.Scheduler(), 10*time.Second)
				st, err := q.Status(ids[2])
				if err != nil || st.State != "queued" {
					t.Fatalf("status of C: %+v, err %v", st, err)
				}
				return st.PredictedStart
			}
			if got := predC(); got != aEnd+50 {
				t.Fatalf("C predicted at %d before the cancel, want %d", got, aEnd+50)
			}
			if ok, err := p.CancelJob(ids[1]); !ok || err != nil {
				t.Fatalf("cancel B: ok %v, err %v", ok, err)
			}
			if got := predC(); got != aEnd {
				t.Fatalf("C predicted at %d in the cancel's second, want %d (A's end)", got, aEnd)
			}
		})
	}
}

// TestSchedulerTinyTimeScaleKeepsServing checks a daemon at a tiny positive
// time scale still answers commands: the wall delay to its next event is
// longer than int64 nanoseconds can hold, and must wait rather than read
// as already due, which would spin the run loop.
func TestSchedulerTinyTimeScaleKeepsServing(t *testing.T) {
	cfg := testConfig(NewManualClock(time.Unix(1700000000, 0)))
	cfg.TimeScale = 1e-12
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if _, err := s.Submit(JobRequest{Procs: 1, Runtime: 10000}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { _, err := s.Stats(); done <- err }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stats got no answer within 5 s at TimeScale 1e-12")
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}
