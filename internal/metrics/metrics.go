// Package metrics computes the job-scheduling quality metrics the paper
// reports, chiefly the average bounded job slowdown (bsld) of Feitelson &
// Rudolph with the conventional 10-second interactive threshold.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/trace"
)

// BoundedSlowdownThreshold is the interactive threshold tau (seconds) that
// keeps very short jobs from dominating the slowdown metric (§1).
const BoundedSlowdownThreshold = 10

// Record captures the scheduling outcome of one job.
type Record struct {
	Job   *trace.Job
	Start int64 // time the job began executing
	End   int64 // time the job finished (Start + Runtime)
}

// Wait returns the queueing delay of the job.
func (r Record) Wait() int64 { return r.Start - r.Job.Submit }

// Turnaround returns submission-to-completion time.
func (r Record) Turnaround() int64 { return r.End - r.Job.Submit }

// RunSeconds returns the time the job actually occupied the machine, which
// is the runtime unless the scheduler killed it at its wall-time limit.
func (r Record) RunSeconds() int64 { return r.End - r.Start }

// Killed reports whether the job exceeded its request and was terminated.
func (r Record) Killed() bool { return r.RunSeconds() < r.Job.Runtime }

// BoundedSlowdown returns max((wait+run)/max(run, tau), 1).
func (r Record) BoundedSlowdown() float64 {
	run := float64(r.RunSeconds())
	wait := float64(r.Wait())
	denom := math.Max(run, BoundedSlowdownThreshold)
	return math.Max((wait+run)/denom, 1)
}

// Summary aggregates a full schedule.
type Summary struct {
	Jobs            int
	MeanBSLD        float64
	MedianBSLD      float64
	MaxBSLD         float64
	MeanWait        float64
	MeanTurnaround  float64
	Makespan        int64
	Utilization     float64 // fraction of proc-seconds busy over the makespan
	ViolationEvents int     // backfill actions that delayed the reserved job
}

// Summarize computes the aggregate metrics for a schedule run on a machine
// with the given processor count.
func Summarize(records []Record, procs int) Summary {
	s := Summary{Jobs: len(records)}
	if len(records) == 0 {
		return s
	}
	bslds := make([]float64, len(records))
	var firstSubmit, lastEnd int64
	firstSubmit = records[0].Job.Submit
	var procSeconds float64
	for i, r := range records {
		bslds[i] = r.BoundedSlowdown()
		s.MeanBSLD += bslds[i]
		s.MeanWait += float64(r.Wait())
		s.MeanTurnaround += float64(r.Turnaround())
		if r.Job.Submit < firstSubmit {
			firstSubmit = r.Job.Submit
		}
		if r.End > lastEnd {
			lastEnd = r.End
		}
		procSeconds += float64(r.Job.Procs) * float64(r.RunSeconds())
	}
	n := float64(len(records))
	s.MeanBSLD /= n
	s.MeanWait /= n
	s.MeanTurnaround /= n
	sort.Float64s(bslds)
	s.MedianBSLD = bslds[len(bslds)/2]
	s.MaxBSLD = bslds[len(bslds)-1]
	s.Makespan = lastEnd - firstSubmit
	if s.Makespan > 0 && procs > 0 {
		s.Utilization = procSeconds / (float64(s.Makespan) * float64(procs))
	}
	return s
}

// String renders the headline numbers.
func (s Summary) String() string {
	return fmt.Sprintf("jobs=%d bsld=%.2f (median %.2f, max %.2f) wait=%.0fs util=%.1f%%",
		s.Jobs, s.MeanBSLD, s.MedianBSLD, s.MaxBSLD, s.MeanWait, s.Utilization*100)
}
