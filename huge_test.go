package repro

import (
	"encoding/binary"
	"hash/fnv"
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
// drain-aware flanks stitched back in trace order.
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

// TestConservativeReplayDigests pins conservative backfilling's schedules on
// two long replays, as rlbf-sim -backfill conservative runs them (FCFS, the
// workload's own estimator, seed 1): FNV-1a over (id, start, end) of every
// record in start order. The hpc2n row runs on user requests, which mostly
// overestimate, so finishes come early and most rounds rebuild the plan; the
// Lublin-Huge row runs on actual runtimes, so most rounds carry it.
func TestConservativeReplayDigests(t *testing.T) {
	for _, c := range []struct {
		trace  string
		jobs   int
		digest uint64
	}{
		{"hpc2n", 10_000, 0xa8415078f236b1af},
		{"lublin-huge", 100_000, 0x6cc7e5e436e51d54},
	} {
		tr, err := experiments.ResolveTrace(c.trace, c.jobs, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(tr, sim.Config{Policy: sched.FCFS{}, Backfiller: backfill.NewConservative(experiments.Estimator(tr))})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [24]byte
		for _, r := range res.Records {
			binary.LittleEndian.PutUint64(b[0:], uint64(r.Job.ID))
			binary.LittleEndian.PutUint64(b[8:], uint64(r.Start))
			binary.LittleEndian.PutUint64(b[16:], uint64(r.End))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != c.digest || len(res.Records) != c.jobs {
			t.Errorf("%s %d jobs: %d records, digest %016x, want %d and %016x",
				c.trace, c.jobs, len(res.Records), got, c.jobs, c.digest)
		}
	}
}
