package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Analysis is a deep workload characterisation beyond the Table 2 means:
// distribution summaries, arrival patterns and per-user concentration. It is
// what one inspects to judge whether a surrogate trace behaves like its
// archive original.
type Analysis struct {
	Stats Stats

	Runtime  stats.Summary // actual runtimes (s)
	Request  stats.Summary // requested times (s)
	Procs    stats.Summary // requested processors
	Gaps     stats.Summary // inter-arrival gaps (s)
	Overest  stats.Summary // request/actual per job
	SerialF  float64       // fraction of single-processor jobs
	Pow2F    float64       // fraction of power-of-two-sized jobs
	Users    int           // distinct users
	TopUserF float64       // fraction of jobs from the most active user
	// OfferedLoad is sum(runtime*procs) / (span*machine) — the demand the
	// workload places on the machine, independent of any scheduler.
	OfferedLoad float64
	// HourlyArrivals is the fraction of submissions per hour-of-day (len 24),
	// showing the diurnal cycle.
	HourlyArrivals [24]float64
	// BurstinessCV is the coefficient of variation of inter-arrival gaps
	// (1 = Poisson; archive traces are typically well above 1).
	BurstinessCV float64
}

// Analyze computes the full characterisation.
func Analyze(t *Trace) Analysis {
	a := Analysis{Stats: ComputeStats(t)}
	if len(t.Jobs) == 0 {
		return a
	}
	var runs, reqs, procs, gaps, overs []float64
	users := map[int32]int{}
	var prev int64
	serial, pow2 := 0, 0
	var area float64
	for i, j := range t.Jobs {
		runs = append(runs, float64(j.Runtime))
		reqs = append(reqs, float64(j.Request))
		procs = append(procs, float64(j.Procs))
		if i > 0 {
			gaps = append(gaps, float64(j.Submit-prev))
		}
		prev = j.Submit
		if j.Runtime > 0 {
			overs = append(overs, float64(j.Request)/float64(j.Runtime))
		}
		if j.Procs == 1 {
			serial++
		}
		if j.Procs&(j.Procs-1) == 0 {
			pow2++
		}
		users[j.User]++
		area += float64(j.Runtime) * float64(j.Procs)
		hour := (j.Submit / 3600) % 24
		a.HourlyArrivals[hour]++
	}
	n := float64(len(t.Jobs))
	a.Runtime = stats.Summarize(runs)
	a.Request = stats.Summarize(reqs)
	a.Procs = stats.Summarize(procs)
	a.Gaps = stats.Summarize(gaps)
	a.Overest = stats.Summarize(overs)
	a.SerialF = float64(serial) / n
	a.Pow2F = float64(pow2) / n
	a.Users = len(users)
	top := 0
	for _, c := range users {
		if c > top {
			top = c
		}
	}
	a.TopUserF = float64(top) / n
	span := t.Jobs[len(t.Jobs)-1].Submit - t.Jobs[0].Submit
	if span > 0 && t.Procs > 0 {
		a.OfferedLoad = area / (float64(span) * float64(t.Procs))
	}
	for i := range a.HourlyArrivals {
		a.HourlyArrivals[i] /= n
	}
	if a.Gaps.Mean > 0 {
		a.BurstinessCV = a.Gaps.Std / a.Gaps.Mean
	}
	return a
}

// String renders a multi-line report.
func (a Analysis) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", a.Stats)
	fmt.Fprintf(&sb, "  runtime   mean %8.0fs median %8.0fs p90 %8.0fs max %8.0fs\n",
		a.Runtime.Mean, a.Runtime.Median, a.Runtime.P90, a.Runtime.Max)
	fmt.Fprintf(&sb, "  request   mean %8.0fs median %8.0fs p90 %8.0fs max %8.0fs\n",
		a.Request.Mean, a.Request.Median, a.Request.P90, a.Request.Max)
	fmt.Fprintf(&sb, "  procs     mean %8.1f  median %8.0f  p90 %8.0f  max %8.0f\n",
		a.Procs.Mean, a.Procs.Median, a.Procs.P90, a.Procs.Max)
	fmt.Fprintf(&sb, "  arrivals  mean gap %6.0fs  cv %.2f (1 = Poisson)\n", a.Gaps.Mean, a.BurstinessCV)
	fmt.Fprintf(&sb, "  shape     serial %4.1f%%  power-of-two %4.1f%%  overest median %.2fx\n",
		a.SerialF*100, a.Pow2F*100, a.Overest.Median)
	fmt.Fprintf(&sb, "  users     %d distinct, top user %4.1f%% of jobs\n", a.Users, a.TopUserF*100)
	fmt.Fprintf(&sb, "  load      offered %4.1f%% of machine capacity\n", a.OfferedLoad*100)
	return sb.String()
}

// UtilizationTimeline reconstructs machine usage over time from completed
// schedule records expressed as (start, end, procs) triples; it returns the
// per-interval busy fraction sampled at `buckets` uniform points of the
// makespan. It is a post-hoc analysis helper for schedule results.
func UtilizationTimeline(startEnds [][3]int64, machineProcs int, buckets int) []float64 {
	if len(startEnds) == 0 || buckets <= 0 || machineProcs <= 0 {
		return nil
	}
	var lo, hi int64
	lo = startEnds[0][0]
	for _, se := range startEnds {
		if se[0] < lo {
			lo = se[0]
		}
		if se[1] > hi {
			hi = se[1]
		}
	}
	if hi <= lo {
		return nil
	}
	type ev struct {
		t int64
		d int
	}
	evs := make([]ev, 0, 2*len(startEnds))
	for _, se := range startEnds {
		evs = append(evs, ev{se[0], int(se[2])}, ev{se[1], -int(se[2])})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return evs[a].d < evs[b].d
	})
	out := make([]float64, buckets)
	used := 0
	ei := 0
	span := hi - lo
	for b := 0; b < buckets; b++ {
		at := lo + span*int64(b)/int64(buckets)
		for ei < len(evs) && evs[ei].t <= at {
			used += evs[ei].d
			ei++
		}
		out[b] = float64(used) / float64(machineProcs)
	}
	return out
}
