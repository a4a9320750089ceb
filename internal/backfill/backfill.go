// Package backfill implements the heuristic backfilling strategies the paper
// builds on and compares against: EASY backfilling driven by pluggable
// runtime estimators (user request time, ideal actual-runtime prediction, or
// noisy predictions), and conservative backfilling as the classic
// related-work baseline. The reinforcement-learning backfiller in
// internal/core plugs into the same Backfiller interface.
package backfill

import (
	"reflect"
	"sort"

	"repro/internal/trace"
)

// Running describes one executing job as seen by a backfiller.
type Running struct {
	Job   *trace.Job
	Start int64
}

// State is the simulator surface a backfiller may use. It is defined here
// (and implemented by internal/sim) so backfilling strategies stay decoupled
// from the engine.
type State interface {
	// Now returns the current simulation time.
	Now() int64
	// FreeProcs returns the number of idle processors.
	FreeProcs() int
	// TotalProcs returns the machine size.
	TotalProcs() int
	// Running returns the currently executing jobs (any order). The slice
	// may be the engine's live bookkeeping: callers must treat it as
	// read-only and must not retain it across StartJob calls.
	Running() []Running
	// StartJob begins executing a waiting job immediately. It panics if the
	// job does not fit; callers must check FreeProcs first.
	StartJob(j *trace.Job)
}

// MemState is implemented by States whose machine carries the memory
// dimension. It is optional so that procs-only engines (and test fakes)
// need not know memory exists; backfillers probe for it via MemOf.
type MemState interface {
	// FreeMem returns the idle memory units.
	FreeMem() int
	// TotalMem returns the machine memory capacity; 0 disables the
	// dimension even if jobs carry memory requests.
	TotalMem() int
}

// MemOf returns the state's free and total memory, or (0, 0) when the state
// has no memory dimension. A zero total is the single switch that turns
// every memory comparison in this package into a no-op.
func MemOf(st State) (free, total int) {
	if ms, ok := st.(MemState); ok {
		if t := ms.TotalMem(); t > 0 {
			return ms.FreeMem(), t
		}
	}
	return 0, 0
}

// memDemand returns the job's memory request, or 0 when the dimension is
// off (memTotal == 0), so comparisons against free/extra memory degenerate
// to 0 <= x.
func memDemand(j *trace.Job, memTotal int) int {
	if memTotal == 0 {
		return 0
	}
	return j.Mem
}

// Backfiller selects lower-priority jobs to run when the head of the queue
// cannot start. Backfill is invoked with the head job (the paper's "relative
// job", rjob) and the rest of the waiting queue in base-policy order; the
// implementation starts zero or more of those jobs via st.StartJob.
type Backfiller interface {
	Name() string
	Backfill(st State, head *trace.Job, queue []*trace.Job)
}

// Cloneable is implemented by backfillers that can hand out independent
// instances of themselves. Backfillers carry per-replay scratch state by
// design (see DESIGN.md §6), so a single instance must never be shared
// between concurrent simulations; parallel evaluation (core.EvalConfig
// Workers > 1) calls Fresh once per worker instead.
type Cloneable interface {
	Backfiller
	// Fresh returns a new backfiller with the same configuration and
	// untouched scratch state.
	Fresh() Backfiller
}

// Reservation is the head job's earliest-start guarantee under a given
// estimator: the shadow time at which enough resources free up, and the
// resources left over ("extra") at that moment.
type Reservation struct {
	Shadow   int64 // earliest estimated start time of the head job
	Extra    int   // processors free at Shadow beyond the head's need
	ExtraMem int   // memory free at Shadow beyond the head's need (0 when off)
}

// jobEnd is one running job in the reservation index: its estimated
// completion (the sort key, with the ID) and what it frees at that moment.
type jobEnd struct {
	end   int64
	id    int
	procs int
	mem   int
}

func newJobEnd(r Running, end int64, memTotal int) jobEnd {
	return jobEnd{end: end, id: r.Job.ID, procs: r.Job.Procs, mem: memDemand(r.Job, memTotal)}
}

// jobEnds orders by (end, id) — a total order (IDs are unique), so any sort
// algorithm, and any sequence of ordered inserts and removes, produces the
// same permutation. The pointer-receiver sort.Sort form keeps the rebuild
// allocation-free (sort.Slice's closure escapes on every call).
type jobEnds []jobEnd

func (s *jobEnds) Len() int      { return len(*s) }
func (s *jobEnds) Swap(i, j int) { (*s)[i], (*s)[j] = (*s)[j], (*s)[i] }
func (s *jobEnds) Less(i, j int) bool {
	a, b := (*s)[i], (*s)[j]
	if a.end != b.end {
		return a.end < b.end
	}
	return a.id < b.id
}

// search returns the first position whose (end, id) is not below the key.
func (s jobEnds) search(end int64, id int) int {
	return sort.Search(len(s), func(i int) bool { return s[i].end > end || (s[i].end == end && s[i].id >= id) })
}

func (s *jobEnds) insert(e jobEnd) {
	k := s.search(e.end, e.id)
	*s = append(*s, jobEnd{})
	copy((*s)[k+1:], (*s)[k:])
	(*s)[k] = e
}

// remove deletes one entry equal to e, if there is one. Entries that share a
// key (a job ID seen again as another job, while Running is out of ID order)
// are told apart by what they free.
func (s *jobEnds) remove(e jobEnd) bool {
	for k := s.search(e.end, e.id); k < len(*s) && (*s)[k].end == e.end && (*s)[k].id == e.id; k++ {
		if (*s)[k] == e {
			*s = append((*s)[:k], (*s)[k+1:]...)
			return true
		}
	}
	return false
}

// indexedRun is one job of the State.Running snapshot the index reflects,
// with the end it is filed under, so that a finished job is removed by key.
type indexedRun struct {
	Running
	end int64
}

// ReservationScratch is the reservation index: the running set in
// estimated-end order, kept across calls and brought up to date by delta
// (DESIGN.md §6). Each Compute walks the snapshot of State.Running it last
// saw against the current one, removes the jobs that finished and inserts
// the ones that started by binary search, and reads the reservation off a
// prefix; the estimator runs once per job start. It re-sorts from scratch
// when the estimator or the memory switch changed, when an ID reappears as
// another *trace.Job or Start (a new episode, a restore), or when the delta
// is about half the set. (end, id) is a total order, so the result equals
// sorting on every call. Any Running order is correct; ID order, which the
// engine keeps, is fastest.
//
// Backfillers that compute reservations on every round (EASY, the RL agent)
// embed one. The zero value is ready to use; a scratch is not goroutine-safe.
type ReservationScratch struct {
	ends       jobEnds
	run, spare []indexedRun // the snapshot, and the buffer the next is merged into
	est        Estimator    // what ends was built with; nil = no valid index
	memOn      bool
}

// merge applies the difference between the snapshot and running to ends. It
// gives up, leaving the index for rebuild to overwrite, on an identity
// mismatch or a delta past the point where sorting is cheaper.
func (s *ReservationScratch) merge(running []Running, est Estimator, memTotal int) bool {
	old, next := s.run, s.spare[:0]
	budget := 8 + len(running)/2
	for i, j := 0, 0; i < len(old) || j < len(running); {
		switch {
		case i < len(old) && j < len(running) && old[i].Running == running[j]:
			next = append(next, old[i])
			i++
			j++
			continue
		case j == len(running) || (i < len(old) && old[i].Job.ID < running[j].Job.ID):
			if !s.ends.remove(newJobEnd(old[i].Running, old[i].end, memTotal)) {
				return false
			}
			i++
		case i == len(old) || running[j].Job.ID < old[i].Job.ID:
			r := running[j]
			end := r.Start + est.Estimate(r.Job)
			s.ends.insert(newJobEnd(r, end, memTotal))
			next = append(next, indexedRun{r, end})
			j++
		default: // same ID, another job or another start
			return false
		}
		if budget--; budget < 0 {
			return false
		}
	}
	s.run, s.spare = next, old
	return true
}

// rebuild decorates the whole running set and sorts it: the fallback.
func (s *ReservationScratch) rebuild(running []Running, est Estimator, memTotal int) {
	s.run, s.ends = s.run[:0], s.ends[:0]
	for _, r := range running {
		end := r.Start + est.Estimate(r.Job)
		s.run = append(s.run, indexedRun{r, end})
		s.ends = append(s.ends, newJobEnd(r, end, memTotal))
	}
	sort.Sort(&s.ends)
	// Only a comparable estimator is remembered: est != s.est then never
	// panics, and an uncomparable one simply rebuilds on every call.
	s.est, s.memOn = nil, memTotal != 0
	if reflect.ValueOf(est).Comparable() {
		s.est = est
	}
}

// Compute derives the head job's reservation from the running jobs'
// estimated completions (start + estimate). This is the core EASY
// bookkeeping (§2.1.3); the RL agent reuses it to detect reservation
// violations. With a memory dimension the shadow is the first completion at
// which both the processor and the memory demand are met; without one, the
// memory terms are identically zero and the walk is the classic one.
func (s *ReservationScratch) Compute(st State, head *trace.Job, est Estimator) Reservation {
	free := st.FreeProcs()
	memFree, memTotal := MemOf(st)
	needMem := memDemand(head, memTotal)
	if free >= head.Procs && memFree >= needMem {
		return Reservation{Shadow: st.Now(), Extra: free - head.Procs, ExtraMem: memFree - needMem}
	}
	// Bring the index up to date with the running set: by delta if it can
	// be, from scratch otherwise.
	running := st.Running()
	if s.est == nil || est != s.est || s.memOn != (memTotal != 0) || !s.merge(running, est, memTotal) {
		s.rebuild(running, est, memTotal)
	}
	avail := free
	availMem := memFree
	for _, r := range s.ends {
		avail += r.procs
		availMem += r.mem
		if avail >= head.Procs && availMem >= needMem {
			end := r.end
			if end < st.Now() {
				// The job has outlived its estimate (possible when the
				// estimator underestimates); it can finish at any moment.
				end = st.Now()
			}
			return Reservation{Shadow: end, Extra: avail - head.Procs, ExtraMem: availMem - needMem}
		}
	}
	// Unreachable for valid traces (head.Procs <= machine size), but return
	// a conservative answer instead of panicking on malformed input.
	return Reservation{Shadow: st.Now(), Extra: 0}
}

// ComputeReservation is the convenience form of ReservationScratch.Compute
// for call sites outside the simulation hot path.
func ComputeReservation(st State, head *trace.Job, est Estimator) Reservation {
	var s ReservationScratch
	return s.Compute(st, head, est)
}
