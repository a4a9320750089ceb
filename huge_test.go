package repro

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/backfill"
	"repro/internal/experiments"
	"repro/internal/lublin"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/trace"
)

// hugeJobs resolves the huge-scenario trace length: one million jobs unless
// RLBF_HUGE_JOBS overrides it (useful for locally iterating on the scenario
// without the full generation and replay cost).
func hugeJobs(tb testing.TB) int {
	tb.Helper()
	n := 1_000_000
	if s := os.Getenv("RLBF_HUGE_JOBS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			tb.Fatalf("bad RLBF_HUGE_JOBS %q", s)
		}
		n = v
	}
	return n
}

// hugeTrace generates the huge-scale scenario: a million-job composition of
// Lublin partition streams on a 4096-node machine at 0.8 utilization.
func hugeTrace(tb testing.TB) *trace.Trace {
	tb.Helper()
	return experiments.HugeTrace(lublin.Huge(0, 0, 0), hugeJobs(tb), 1)
}

// BenchmarkSimulatorHuge replays the huge-scale scenario under conservative
// backfilling — the profile-heaviest heuristic, whose reservation skyline
// grows with the backlog and therefore leans hardest on FindStart. "seq" is
// the single-engine replay; "sharded-auto" replays 64K-job windows with
// drain-aware auto-sized flanks (Overlap 0) stitched back in trace order.
// CI runs this at -benchtime 1x as the standing million-job regression
// record; set RLBF_HUGE_JOBS to iterate locally at smaller scales.
func BenchmarkSimulatorHuge(b *testing.B) {
	tr := hugeTrace(b)
	mk := func() backfill.Backfiller { return backfill.NewConservative(backfill.ActualRuntime{}) }
	b.Run("conservative-seq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(tr, sim.Config{Policy: sched.FCFS{}, Backfiller: mk()})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("%d jobs, mean bsld %.3f", tr.Len(), res.Summary.MeanBSLD)
			}
		}
	})
	b.Run("conservative-sharded-auto", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := shard.ReplayWith(tr, sched.FCFS{}, mk,
				shard.Config{Window: 1 << 16, MinJobs: 1}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestHugeShardStitch is the huge-scale stitching differential: the
// auto-sized sharded replay of the million-job scenario must be
// byte-identical to the sequential one, record for record. The full run
// costs several sequential replays' worth of CPU, so it is opt-in: the CI
// bench job runs it with RLBF_HUGE=1 (and the artifact records the log);
// plain `go test` skips it.
func TestHugeShardStitch(t *testing.T) {
	if os.Getenv("RLBF_HUGE") == "" {
		t.Skip("set RLBF_HUGE=1 (and optionally RLBF_HUGE_JOBS) to run the million-job stitch differential")
	}
	tr := hugeTrace(t)
	mk := func() backfill.Backfiller { return backfill.NewConservative(backfill.ActualRuntime{}) }
	seq, err := shard.ReplayWith(tr, sched.FCFS{}, mk, shard.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.ReplayWith(tr, sched.FCFS{}, mk, shard.Config{Window: 1 << 16, MinJobs: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Records) != len(sh.Records) {
		t.Fatalf("record counts differ: sequential %d, sharded %d", len(seq.Records), len(sh.Records))
	}
	bad := 0
	for i := range seq.Records {
		if seq.Records[i] != sh.Records[i] {
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d records differ between sequential and auto-sized sharded replay",
			bad, len(seq.Records))
	}
	if seq.Summary != sh.Summary {
		t.Fatalf("summaries differ: sequential %+v, sharded %+v", seq.Summary, sh.Summary)
	}
	t.Logf("huge stitch: %d records byte-identical, mean bsld %.3f", len(seq.Records), seq.Summary.MeanBSLD)
}
