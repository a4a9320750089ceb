package sim

import (
	"testing"

	"repro/internal/backfill"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

// liveTrace builds a small random workload for the live-ingestion tests.
func liveTrace(seed uint64, n, procs int) *trace.Trace {
	rng := stats.NewRNG(seed)
	t := &trace.Trace{Name: "live-test", Procs: procs}
	var submit int64
	for i := 0; i < n; i++ {
		submit += int64(rng.Uint64() % 40)
		run := 1 + int64(rng.Uint64()%300)
		t.Jobs = append(t.Jobs, &trace.Job{
			ID:      i + 1,
			Submit:  submit,
			Runtime: run,
			Request: run + int64(rng.Uint64()%60),
			Procs:   1 + int(rng.Uint64()%uint64(procs)),
		})
	}
	return t
}

// TestLiveInjectMatchesBatchReplay drives the same workload through the
// batch path (Run over the full trace) and the live path (inject each job
// just before the clock reaches its submit time), and pins the schedules
// identical. This is the core guarantee the serve daemon builds on: a live
// engine is the batch engine, fed incrementally.
func TestLiveInjectMatchesBatchReplay(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		tr := liveTrace(seed, 400, 32)
		for _, mk := range []func() backfill.Backfiller{
			func() backfill.Backfiller { return nil },
			func() backfill.Backfiller { return &backfill.EASY{Est: backfill.RequestTime{}} },
			func() backfill.Backfiller { return backfill.NewConservative(backfill.RequestTime{}) },
		} {
			batch, err := Run(tr, Config{Policy: sched.FCFS{}, Backfiller: mk()})
			if err != nil {
				t.Fatal(err)
			}
			live, err := NewLiveEngine("live-test", tr.Procs, 0, Config{Policy: sched.FCFS{}, Backfiller: mk()})
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range tr.Jobs {
				// Advance strictly past everything before the submit instant,
				// then inject: events at the submit instant itself are
				// processed together with the arrival, exactly as in batch.
				if j.Submit > 0 {
					live.RunUntil(j.Submit - 1)
				}
				if err := live.Inject(j.Clone()); err != nil {
					t.Fatalf("seed %d: inject job %d: %v", seed, j.ID, err)
				}
			}
			live.RunToCompletion()
			lr := live.Records()
			if len(lr) != len(batch.Records) {
				t.Fatalf("seed %d: live %d records, batch %d", seed, len(lr), len(batch.Records))
			}
			for i := range lr {
				b := batch.Records[i]
				if lr[i].Job.ID != b.Job.ID || lr[i].Start != b.Start || lr[i].End != b.End {
					t.Fatalf("seed %d: record %d live {job %d %d-%d} != batch {job %d %d-%d}",
						seed, i, lr[i].Job.ID, lr[i].Start, lr[i].End, b.Job.ID, b.Start, b.End)
				}
			}
		}
	}
}

func TestInjectValidation(t *testing.T) {
	e, err := NewLiveEngine("v", 8, 0, Config{Policy: sched.FCFS{}})
	if err != nil {
		t.Fatal(err)
	}
	ok := &trace.Job{ID: 1, Submit: 10, Runtime: 5, Request: 5, Procs: 2}
	if err := e.Inject(ok); err != nil {
		t.Fatal(err)
	}
	cases := []*trace.Job{
		{ID: 2, Submit: 10, Runtime: 5, Request: 5, Procs: 9}, // too wide
		{ID: 3, Submit: 5, Runtime: 5, Request: 5, Procs: 1},  // before pending arrival
		{ID: 4, Submit: 10, Runtime: 5, Request: 0, Procs: 1}, // invalid request
	}
	for _, j := range cases {
		if err := e.Inject(j); err == nil {
			t.Fatalf("inject job %d should have failed", j.ID)
		}
	}
	e.RunToCompletion()
	if err := e.Inject(&trace.Job{ID: 5, Submit: 3, Runtime: 5, Request: 5, Procs: 1}); err == nil {
		t.Fatal("inject before engine clock should have failed")
	}
	// At or after the clock is fine even with everything drained.
	if err := e.Inject(&trace.Job{ID: 6, Submit: e.Now(), Runtime: 5, Request: 5, Procs: 1}); err != nil {
		t.Fatal(err)
	}
}

// Inject refuses an ID that is pending, queued or running: the engine would
// otherwise hold one job twice. A canceled job's ID is free again.
func TestInjectRejectsHeldID(t *testing.T) {
	e, err := NewLiveEngine("ids", 4, 0, Config{Policy: sched.FCFS{}})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id int, submit int64) *trace.Job {
		return &trace.Job{ID: id, Submit: submit, Runtime: 100, Request: 100, Procs: 4}
	}
	for _, j := range []*trace.Job{mk(1, 0), mk(2, 0), mk(3, 50), mk(9, 60)} {
		if err := e.Inject(j); err != nil {
			t.Fatal(err)
		}
	}
	e.RunUntil(10) // job 1 runs, 2 waits, 3 and 9 are pending
	if e.RunningCount() != 1 || e.QueueLen() != 1 || e.PendingArrivals() != 2 {
		t.Fatalf("running=%d queue=%d pending=%d, want 1/1/2", e.RunningCount(), e.QueueLen(), e.PendingArrivals())
	}
	for _, id := range []int{1, 2, 3, 9} {
		if err := e.Inject(mk(id, 70)); err == nil {
			t.Fatalf("job %d injected while held", id)
		}
	}
	if !e.Cancel(3) {
		t.Fatal("canceling pending job 3 failed")
	}
	for _, id := range []int{3, 4, 10} {
		if err := e.Inject(mk(id, 70)); err != nil {
			t.Fatalf("inject job %d: %v", id, err)
		}
	}
	e.RunToCompletion()
	if got := len(e.Records()); got != 6 { // 1, 2, 9 and the three injected last
		t.Fatalf("%d records, want 6", got)
	}
}

func TestCancelPendingAndQueued(t *testing.T) {
	e, err := NewLiveEngine("c", 2, 0, Config{Policy: sched.FCFS{}, Backfiller: &backfill.EASY{Est: backfill.RequestTime{}}})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id int, submit int64, procs int) *trace.Job {
		return &trace.Job{ID: id, Submit: submit, Runtime: 100, Request: 100, Procs: procs}
	}
	// Job 1 occupies the machine; 2 and 3 queue behind it; 4 stays pending.
	for _, j := range []*trace.Job{mk(1, 0, 2), mk(2, 1, 2), mk(3, 2, 2), mk(4, 50, 1)} {
		if err := e.Inject(j); err != nil {
			t.Fatal(err)
		}
	}
	e.RunUntil(10)
	if e.QueueLen() != 2 || e.PendingArrivals() != 1 || e.RunningCount() != 1 {
		t.Fatalf("queue=%d pending=%d running=%d, want 2/1/1", e.QueueLen(), e.PendingArrivals(), e.RunningCount())
	}
	if !e.Cancel(4) {
		t.Fatal("canceling pending job 4 failed")
	}
	if !e.Cancel(2) {
		t.Fatal("canceling queued job 2 failed")
	}
	if e.Cancel(1) {
		t.Fatal("canceling running job 1 should fail")
	}
	if e.Cancel(99) {
		t.Fatal("canceling unknown job should fail")
	}
	e.RunToCompletion()
	// Only jobs 1 and 3 ever run.
	recs := e.Records()
	if len(recs) != 2 || recs[0].Job.ID != 1 || recs[1].Job.ID != 3 {
		t.Fatalf("records %v, want jobs 1 then 3", recs)
	}
	// Job 3 starts when job 1 finishes — job 2's cancellation freed its slot.
	if recs[1].Start != 100 {
		t.Fatalf("job 3 started at %d, want 100", recs[1].Start)
	}
}

// TestCancelKeepsSnapshotResumable pins that a cancel interleaved with
// snapshot/resume leaves the remaining schedule byte-identical to an engine
// that never saw the canceled job.
func TestCancelKeepsSnapshotResumable(t *testing.T) {
	tr := liveTrace(3, 200, 16)
	cfg := func() Config {
		return Config{Policy: sched.FCFS{}, Backfiller: backfill.NewConservative(backfill.RequestTime{})}
	}
	const victim = 101

	// Reference: replay the trace without the victim job at all.
	ref := &trace.Trace{Name: tr.Name, Procs: tr.Procs}
	for _, j := range tr.Jobs {
		if j.ID != victim {
			ref.Jobs = append(ref.Jobs, j)
		}
	}
	want, err := Run(ref, cfg())
	if err != nil {
		t.Fatal(err)
	}

	// Live: inject everything, cancel the victim while it waits (before its
	// submit time is reached it is still pending), then snapshot and resume.
	live, err := NewLiveEngine(tr.Name, tr.Procs, 0, cfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if err := live.Inject(j.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if !live.Cancel(victim) {
		t.Fatal("cancel failed")
	}
	mid := tr.Jobs[len(tr.Jobs)/2].Submit
	live.RunUntil(mid)
	snap := live.Snapshot()
	rest := &trace.Trace{Name: tr.Name, Procs: tr.Procs, Jobs: live.AppendPending(nil)}
	snap.NextArrival = 0
	resumed, err := NewEngineFromSnapshot(rest, cfg(), snap)
	if err != nil {
		t.Fatal(err)
	}
	resumed.RunToCompletion()

	got := append(append([]metrics.Record{}, live.Records()...), resumed.Records()...)
	if len(got) != len(want.Records) {
		t.Fatalf("%d records, want %d", len(got), len(want.Records))
	}
	for i := range got {
		w := want.Records[i]
		if got[i].Job.ID != w.Job.ID || got[i].Start != w.Start || got[i].End != w.End {
			t.Fatalf("record %d: {job %d %d-%d} != reference {job %d %d-%d}",
				i, got[i].Job.ID, got[i].Start, got[i].End, w.Job.ID, w.Start, w.End)
		}
	}
}
