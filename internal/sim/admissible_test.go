package sim

import (
	"fmt"
	"testing"

	"repro/internal/backfill"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

// startsProjectedNow is a test-only backfiller: one Predictor.Project over
// head + queue, then it starts, in queue order, exactly the non-head jobs
// whose projected start is the current instant. No trial, no rollback.
type startsProjectedNow struct {
	est     backfill.Estimator
	pr      backfill.Predictor
	order   []*trace.Job
	plan    []backfill.PlannedStart
	started int
}

func (b *startsProjectedNow) Name() string { return "project-now" }

func (b *startsProjectedNow) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	b.order = append(append(b.order[:0], head), queue...)
	b.plan = b.pr.Project(st, b.est, b.order, b.plan[:0])
	now := st.Now()
	for _, ps := range b.plan[1:] {
		if ps.Start == now {
			st.StartJob(ps.Job)
			b.started++
		}
	}
}

// conservativeCase draws one row of the randomised conservative matrix: a
// machine of 8, 32 or 100 processors, half of them with memory; 20 to 169
// jobs in bursts (a third share a submit time), with user requests below
// runtimes for a fifth of them, so running jobs outlive their reservations
// under request-based estimates; the RT, AR or Noisy estimator; FCFS, SJF or
// WFP3; and priority tiers and starvation bounds.
func conservativeCase(seed uint64) (*trace.Trace, backfill.Estimator, sched.Policy, sched.Scenario) {
	r := stats.NewRNG(seed * 7919)
	procs := []int{8, 32, 100}[r.Intn(3)]
	tr := &trace.Trace{Name: "fuzz-admit", Procs: procs}
	if r.Intn(2) == 0 {
		tr.Mem = procs * 100
	}
	var submit int64
	for i, n := 0, r.Intn(150)+20; i < n; i++ {
		if r.Intn(3) > 0 { // bursts: a third of the jobs share a submit time
			submit += r.Int63n(150)
		}
		run := r.Int63n(500) + 1
		req := run + r.Int63n(500)
		if r.Intn(5) == 0 {
			req = r.Int63n(run) + 1
		}
		j := &trace.Job{ID: i + 1, Submit: submit, Runtime: run, Request: req,
			Procs: r.Intn(procs) + 1, Priority: int32(r.Intn(3))}
		if tr.Mem > 0 {
			j.Mem = r.Intn(tr.Mem) + 1
		}
		tr.Jobs = append(tr.Jobs, j)
	}
	est := []backfill.Estimator{backfill.RequestTime{}, backfill.ActualRuntime{},
		backfill.Noisy{Level: 0.5, Seed: seed}}[r.Intn(3)]
	policy := []sched.Policy{sched.FCFS{}, sched.SJF{}, sched.WFP3{}}[r.Intn(3)]
	scn := sched.Scenario{Priorities: r.Intn(2) == 0, StarvationBound: float64(r.Intn(3))}
	return tr, est, policy, scn
}

// TestConservativeAdmitsExactlyProjectedNow pins the identity conservative
// backfilling stands on: with zero slip allowed, a candidate's trial succeeds
// if and only if the base plan already starts it now. The reference is the
// oracle's conservative backfiller, which reserves each candidate, re-places
// the whole queue after it and plans afresh after every start; it must
// produce the record stream of the backfiller above, which plans once per
// call and trials nothing. Randomised over conservativeCase's matrix, cut
// to the first 50 jobs of each case: the oracle's trials cost O(n³) per
// run, and the full-length cases take minutes under the race detector.
func TestConservativeAdmitsExactlyProjectedNow(t *testing.T) {
	records, started := 0, 0
	for seed := uint64(1); seed <= 240; seed++ {
		tr, est, policy, scn := conservativeCase(seed)
		tr.Jobs = tr.Jobs[:min(len(tr.Jobs), 50)]
		want := oracle.Run(tr.Clone(), policy, scn, est.Estimate, oracle.Conservative())
		probe := &startsProjectedNow{est: est}
		got, err := Run(tr.Clone(), Config{Policy: policy, Scenario: scn, Backfiller: probe})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seed %d %s/%s/%s mem=%d", seed, policy.Name(), est.Name(), scnLabel(scn), tr.Mem)
		diffRecords(t, label, want, got.Records)
		records += len(got.Records)
		started += probe.started
	}
	t.Logf("%d records, %d backfilled starts", records, started)
	if started < records/20 {
		t.Fatalf("only %d of %d jobs were backfilled: the traces do not exercise the identity", started, records)
	}
}
