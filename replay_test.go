package repro

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/backfill"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestReplayDigests pins the schedules of long replays, as rlbf-sim runs
// them (the workload's own estimator, seed 1): FNV-1a over (id, start, end)
// of every record in start order, one row per backfiller, trace and policy.
// Conservative: the hpc2n row runs on user requests, which mostly
// overestimate, so finishes come early and most rounds rebuild the plan; the
// Lublin-Huge row runs on actual runtimes, so most rounds carry it. EASY:
// the Lublin-Huge row answers most finish rounds from the live list; on
// hpc2n's user requests early finishes raise the head's extra, so many
// rounds scan in full; under WFP3 the queue is reordered every round, so
// no list is kept. The deep row compresses Lublin-Huge's arrivals to one
// every gap seconds and moves every runtime by up to 5 % either way, as the
// serve workloads do, and plans on the untouched requests: the queue climbs
// past 1,000 jobs, and every job that finishes early rebuilds the plan.
func TestReplayDigests(t *testing.T) {
	for _, c := range []struct {
		backfill string
		trace    string
		policy   sched.Policy
		jobs     int
		gap      int64 // > 0: the deep row
		digest   uint64
	}{
		{"conservative", "hpc2n", sched.FCFS{}, 10_000, 0, 0xa8415078f236b1af},
		{"conservative", "lublin-huge", sched.FCFS{}, 100_000, 0, 0x6cc7e5e436e51d54},
		{"conservative", "lublin-huge", sched.FCFS{}, 2_500, 5, 0xae4dac5bd759890a},
		{"easy", "lublin-huge", sched.FCFS{}, 100_000, 0, 0xa51419ddd8e05c61},
		{"easy", "hpc2n", sched.FCFS{}, 10_000, 0, 0x0f07fd16e8dbad14},
		{"easy", "sdsc-sp2", sched.WFP3{}, 10_000, 0, 0xb559f4f6e2212865},
	} {
		tr, err := experiments.ResolveTrace(c.trace, c.jobs, 1)
		if err != nil {
			t.Fatal(err)
		}
		est := experiments.Estimator(tr)
		if c.gap > 0 {
			rng := stats.NewRNG(1)
			for i, j := range tr.Jobs {
				j.Submit = int64(i) * c.gap
				j.Runtime = max(int64(float64(j.Runtime)*(0.95+0.1*rng.Float64())), 1)
			}
			est = backfill.RequestTime{}
		}
		var bf backfill.Backfiller = backfill.NewConservative(est)
		if c.backfill == "easy" {
			bf = backfill.NewEASY(est)
		}
		res, err := sim.Run(tr, sim.Config{Policy: c.policy, Backfiller: bf})
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
			t.Errorf("%s %s %s %d jobs (gap %d): %d records, digest %016x, want %d and %016x",
				c.backfill, c.trace, c.policy.Name(), c.jobs, c.gap, len(res.Records), got, c.jobs, c.digest)
		}
	}
}
