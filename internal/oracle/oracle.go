// Package oracle is the reference model every differential test compares the
// optimised scheduling code against. Nothing in it is incremental, indexed or
// cached: availability is a flat list of reservations scanned in full on every
// query, an EASY reservation is recomputed from a fresh sort of the running
// set, and the simulator (engine.go) advances event instant by event instant,
// re-sorting the whole queue each time. It is slow on purpose, so that it is
// simple enough to trust, and it panics on inputs it cannot answer rather than
// returning a plausible value.
//
// Only test files import it. It depends on trace, sched and metrics alone, so
// the internal tests of cluster and backfill can import it without a cycle;
// that is why estimators arrive as plain functions.
package oracle

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/trace"
)

// Est estimates a job's runtime, as backfill.Estimator.Estimate does.
type Est func(*trace.Job) int64

// hold is one reservation: procs processors and mem memory units held over
// [start, end).
type hold struct {
	start, end int64
	procs, mem int
}

// Profile is a two-dimensional availability model kept as a flat list of
// reservations. The free functions are piecewise constant and change only at
// reservation boundaries, so every query checks its window's start and every
// boundary strictly inside the window, scanning all reservations at each.
// Nothing is reserved before the first reservation starts or after the last
// one ends. A Mem capacity of 0 switches the memory dimension off: callers
// then demand 0 memory and every memory check passes.
type Profile struct {
	Procs, Mem int
	holds      []hold
}

// FreeAt returns the free processors and memory at instant t.
func (p *Profile) FreeAt(t int64) (procs, mem int) {
	procs, mem = p.Procs, p.Mem
	for _, h := range p.holds {
		if h.start <= t && t < h.end {
			procs -= h.procs
			mem -= h.mem
		}
	}
	return procs, mem
}

// MinFree returns the minimum free processors and memory over [start, end),
// each taken on its own. An empty window reports FreeAt(start).
func (p *Profile) MinFree(start, end int64) (procs, mem int) {
	procs, mem = p.FreeAt(start)
	for _, h := range p.holds {
		for _, t := range [2]int64{h.start, h.end} {
			if t > start && t < end {
				fp, fm := p.FreeAt(t)
				procs, mem = min(procs, fp), min(mem, fm)
			}
		}
	}
	return procs, mem
}

// fits reports whether procs processors and mem memory are free at every
// instant of [start, end).
func (p *Profile) fits(start, end int64, procs, mem int) bool {
	fp, fm := p.MinFree(start, end)
	return fp >= procs && fm >= mem
}

// Reserve adds the reservation if it is well formed (procs > 0, a non-empty
// window) and fits, and reports whether it did.
func (p *Profile) Reserve(start, end int64, procs, mem int) bool {
	if procs <= 0 || end <= start || !p.fits(start, end, procs, mem) {
		return false
	}
	p.holds = append(p.holds, hold{start, end, procs, mem})
	return true
}

// FindStart returns the earliest t >= after at which [t, t+dur) fits procs
// processors and mem memory. The candidates are `after` and every reservation
// end beyond it: between two ends free resources only fall, so a feasible
// start that is not a candidate could move back to the previous one. Past the
// last end the machine is empty, so a demand within capacity always finds a
// start; any other demand, or a non-positive duration, panics.
func (p *Profile) FindStart(after, dur int64, procs, mem int) int64 {
	if dur <= 0 || procs > p.Procs || mem > p.Mem {
		panic(fmt.Sprintf("oracle: FindStart(%d, %d, %d, %d) on a %dx%d machine", after, dur, procs, mem, p.Procs, p.Mem))
	}
	cands := []int64{after}
	for _, h := range p.holds {
		if h.end > after {
			cands = append(cands, h.end)
		}
	}
	slices.Sort(cands)
	for _, c := range cands {
		if p.fits(c, c+dur, procs, mem) {
			return c
		}
	}
	panic(fmt.Sprintf("oracle: no start for %dx%d over %d after %d", procs, mem, dur, after))
}

// place reserves the demand at its earliest start and returns the start.
func (p *Profile) place(after, dur int64, procs, mem int) int64 {
	s := p.FindStart(after, dur, procs, mem)
	p.holds = append(p.holds, hold{s, s + dur, procs, mem})
	return s
}

// Boundaries returns every reservation start and end, sorted and without
// duplicates: the only instants at which the free functions can change.
func (p *Profile) Boundaries() []int64 {
	var ts []int64
	for _, h := range p.holds {
		ts = append(ts, h.start, h.end)
	}
	slices.Sort(ts)
	return slices.Compact(ts)
}

// Running is one executing job, started at Start.
type Running struct {
	Job   *trace.Job
	Start int64
}

// Machine is the state one scheduling decision sees: the clock, the
// capacities (Mem == 0 switches memory off), what is free now, the running
// set and the runtime estimator.
type Machine struct {
	Now                int64
	Procs, Mem         int
	FreeProcs, FreeMem int
	Running            []Running
	Est                Est
}

// demand is a job's memory demand: 0 whenever the machine has no memory
// dimension.
func (m *Machine) demand(j *trace.Job) int {
	if m.Mem == 0 {
		return 0
	}
	return j.Mem
}

// Reservation is an EASY reservation: the earliest estimated start of a job
// and what is left over at that instant beyond its demand. Its fields match
// backfill.Reservation, so one converts to the other.
type Reservation struct {
	Shadow   int64
	Extra    int
	ExtraMem int
}

// Reservation computes the job's EASY reservation from scratch: if it fits
// now the shadow is now; otherwise sort the running set by (estimated end,
// ID) and release jobs until both dimensions cover the demand. An estimated
// end already past is clamped to now. A demand the whole running set cannot
// cover reports now with nothing extra.
func (m *Machine) Reservation(j *trace.Job) Reservation {
	need := m.demand(j)
	if m.FreeProcs >= j.Procs && m.FreeMem >= need {
		return Reservation{Shadow: m.Now, Extra: m.FreeProcs - j.Procs, ExtraMem: m.FreeMem - need}
	}
	ends := slices.Clone(m.Running)
	slices.SortFunc(ends, func(a, b Running) int {
		return cmp.Or(cmp.Compare(a.Start+m.Est(a.Job), b.Start+m.Est(b.Job)), cmp.Compare(a.Job.ID, b.Job.ID))
	})
	procs, mem := m.FreeProcs, m.FreeMem
	for _, r := range ends {
		procs += r.Job.Procs
		mem += m.demand(r.Job)
		if procs >= j.Procs && mem >= need {
			return Reservation{Shadow: max(r.Start+m.Est(r.Job), m.Now), Extra: procs - j.Procs, ExtraMem: mem - need}
		}
	}
	return Reservation{Shadow: m.Now}
}

// base is the availability profile of the running set alone: every running
// job holds its processors and memory from now to its estimated end, and a
// job already past that end is assumed to release at now+1.
func (m *Machine) base() *Profile {
	p := &Profile{Procs: m.Procs, Mem: m.Mem}
	for _, r := range m.Running {
		end := r.Start + m.Est(r.Job)
		if end <= m.Now {
			end = m.Now + 1
		}
		if !p.Reserve(m.Now, end, r.Job.Procs, m.demand(r.Job)) {
			panic(fmt.Sprintf("oracle: running job %d does not fit the machine", r.Job.ID))
		}
	}
	return p
}

// Plan places the jobs in the given order on the running set's profile, each
// at its earliest start for its estimated runtime, and returns the starts:
// conservative backfilling's base plan and the daemon's start projection.
func (m *Machine) Plan(jobs []*trace.Job) []int64 {
	p := m.base()
	starts := make([]int64, len(jobs))
	for i, j := range jobs {
		starts[i] = p.place(m.Now, m.Est(j), j.Procs, m.demand(j))
	}
	return starts
}
