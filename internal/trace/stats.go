package trace

import (
	"fmt"
	"strings"
)

// Stats summarises the characteristics Table 2 of the paper reports for each
// workload.
type Stats struct {
	Name             string
	Jobs             int
	Procs            int     // machine size
	MeanInterarrival float64 // it (seconds)
	MeanRequest      float64 // rt (seconds)
	MeanRuntime      float64 // actual runtime mean (seconds)
	MeanProcs        float64 // nt
	MaxJobProcs      int
	Span             int64 // submit-time span (seconds)
	MeanOverestimate float64

	// Scenario dimensions; all zero for classic procs-only traces.
	Mem          int     // machine memory capacity (0 = dimension off)
	JobsWithMem  int     // jobs carrying a memory request
	MeanMem      float64 // mean memory request over jobs with one
	MaxJobMem    int
	PriorityMax  int         // highest tier seen
	PriorityDist map[int]int // tier -> job count; nil when all jobs are tier 0
}

// ComputeStats derives workload statistics from a trace.
func ComputeStats(t *Trace) Stats {
	a := NewStatsAccum(t.Name, t.Procs, t.Mem)
	for _, j := range t.Jobs {
		a.Add(j)
	}
	return a.Stats()
}

// StatsAccum accumulates the Table 2 statistics one job at a time, so a
// streamed workload (experiments.ResolveStream, lublin.HugeSpec.Stream) can
// be summarized without ever materializing a job slice. Jobs must arrive in
// submit order, as they do in a trace. ComputeStats is built on the
// accumulator, so the two paths agree bit-for-bit: every mean is a single
// linear sum in job order, exactly the summation stats.Mean performed over
// the per-job slices.
type StatsAccum struct {
	s           Stats
	firstSubmit int64
	prevSubmit  int64
	gapSum      float64
	reqSum      float64
	runSum      float64
	procSum     float64
	overSum     float64
	overN       int
	memSum      float64
	dist        map[int]int
}

// NewStatsAccum starts a summary for a machine of the given name, processor
// count and total memory capacity (0 = memory dimension off).
func NewStatsAccum(name string, procs, mem int) *StatsAccum {
	return &StatsAccum{
		s:    Stats{Name: name, Procs: procs, Mem: mem},
		dist: make(map[int]int),
	}
}

// Add folds one job into the summary.
func (a *StatsAccum) Add(j *Job) {
	if a.s.Jobs == 0 {
		a.firstSubmit = j.Submit
	} else {
		a.gapSum += float64(j.Submit - a.prevSubmit)
	}
	a.prevSubmit = j.Submit
	a.s.Jobs++
	a.reqSum += float64(j.Request)
	a.runSum += float64(j.Runtime)
	a.procSum += float64(j.Procs)
	if j.Runtime > 0 {
		a.overSum += float64(j.Request) / float64(j.Runtime)
		a.overN++
	}
	if j.Procs > a.s.MaxJobProcs {
		a.s.MaxJobProcs = j.Procs
	}
	if j.Mem > 0 {
		a.s.JobsWithMem++
		a.memSum += float64(j.Mem)
		if j.Mem > a.s.MaxJobMem {
			a.s.MaxJobMem = j.Mem
		}
	}
	if p := int(j.Priority); p > a.s.PriorityMax {
		a.s.PriorityMax = p
	}
	a.dist[int(j.Priority)]++
}

// Stats finalizes and returns the summary; the accumulator may keep
// receiving jobs afterwards (Stats is a snapshot).
func (a *StatsAccum) Stats() Stats {
	s := a.s
	if s.Jobs == 0 {
		return s
	}
	if n := s.Jobs - 1; n > 0 {
		s.MeanInterarrival = a.gapSum / float64(n)
	}
	s.MeanRequest = a.reqSum / float64(s.Jobs)
	s.MeanRuntime = a.runSum / float64(s.Jobs)
	s.MeanProcs = a.procSum / float64(s.Jobs)
	if a.overN > 0 {
		s.MeanOverestimate = a.overSum / float64(a.overN)
	}
	if s.JobsWithMem > 0 {
		s.MeanMem = a.memSum / float64(s.JobsWithMem)
	}
	if s.PriorityMax > 0 {
		s.PriorityDist = make(map[int]int, len(a.dist))
		for tier, n := range a.dist {
			s.PriorityDist[tier] = n
		}
	}
	s.Span = a.prevSubmit - a.firstSubmit
	return s
}

// String renders the statistics in a Table 2-like row. Scenario dimensions
// (memory, priority tiers) are appended only when the trace carries them, so
// classic procs-only traces render exactly as before.
func (s Stats) String() string {
	row := fmt.Sprintf("%-10s jobs=%-6d size=%-4d it=%-7.0f rt=%-7.0f ar=%-7.0f nt=%-5.1f over=%.2f",
		s.Name, s.Jobs, s.Procs, s.MeanInterarrival, s.MeanRequest, s.MeanRuntime, s.MeanProcs, s.MeanOverestimate)
	if s.Mem > 0 || s.JobsWithMem > 0 {
		row += fmt.Sprintf(" mem=%d memjobs=%d meanmem=%.0f", s.Mem, s.JobsWithMem, s.MeanMem)
	}
	if s.PriorityMax > 0 {
		row += fmt.Sprintf(" tiers=%d", s.PriorityMax+1)
	}
	return row
}

// PriorityTable renders the tier distribution as "tier:count" pairs in
// ascending tier order, or "" when the trace is priority-free.
func (s Stats) PriorityTable() string {
	if s.PriorityDist == nil {
		return ""
	}
	var b strings.Builder
	for tier := 0; tier <= s.PriorityMax; tier++ {
		n, ok := s.PriorityDist[tier]
		if !ok {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", tier, n)
	}
	return b.String()
}
