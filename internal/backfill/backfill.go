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
	// Journal returns the state's change journal (never nil). A state that
	// keeps none returns a zero Journal, and backfillers then re-derive
	// everything on every call.
	Journal() *Journal
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

func newJobEnd(j *trace.Job, end int64, memTotal int) jobEnd {
	return jobEnd{end: end, id: j.ID, procs: j.Procs, mem: memDemand(j, memTotal)}
}

// jobEnds orders by (end, id) — a total order (running IDs are unique), so
// any sort algorithm, and any sequence of ordered inserts and removes,
// produces the same permutation. The pointer-receiver sort.Sort form keeps
// the rebuild allocation-free (sort.Slice's closure escapes on every call).
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

// ReservationScratch is the reservation index: the running set in
// estimated-end order, kept across calls and fed by the State's journal
// (DESIGN.md §6). Each Compute applies the entries recorded since its cursor
// — a start is inserted by binary search; a finish is found by ID and
// removed, shifting the prefix instead of the tail when it sits in the front
// half — then reads the reservation off a prefix; the estimator runs once
// per job start. It re-sorts State.Running from scratch when it has no index
// yet, when the estimator or the memory switch changed, or when the journal
// rejects its cursor (another journal, or entries dropped while it lagged).
// (end, id) is a total order, so the result equals sorting on every call.
//
// Backfillers that compute reservations on every round (EASY, the RL agent)
// embed one. The zero value is ready to use; a scratch is not goroutine-safe.
type ReservationScratch struct {
	buf   jobEnds // the index is buf[lo:]; front removals leave slack below lo
	lo    int
	at    Cursor    // the journal position the index reflects
	est   Estimator // what the index was built with; nil = no valid index
	memOn bool
}

// insert files a started job.
func (s *ReservationScratch) insert(x jobEnd) {
	ends := s.buf[s.lo:]
	k := ends.search(x.end, x.id)
	if len(s.buf) == cap(s.buf) && s.lo > 0 { // reclaim the front slack before growing
		n := copy(s.buf, ends)
		s.buf, s.lo = s.buf[:n], 0
	}
	s.buf = append(s.buf, jobEnd{})
	ends = s.buf[s.lo:]
	copy(ends[k+1:], ends[k:])
	ends[k] = x
}

// remove drops a finished job: one in the front half shifts the prefix up,
// any other the tail down. It reports false when the job is not there.
func (s *ReservationScratch) remove(id int) bool {
	ends := s.buf[s.lo:]
	for k := range ends {
		if ends[k].id != id {
			continue
		}
		if k < len(ends)/2 {
			copy(ends[1:], ends[:k])
			s.lo++
		} else {
			copy(ends[k:], ends[k+1:])
			s.buf = s.buf[:len(s.buf)-1]
		}
		return true
	}
	return false
}

// catchUp applies the journal entries after the cursor. It gives up, leaving
// the index for rebuild to overwrite, when the journal rejects the cursor or
// names a finished job the index does not hold.
func (s *ReservationScratch) catchUp(jr *Journal, est Estimator, memTotal int) bool {
	changes, ok := jr.Since(s.at)
	if !ok {
		return false
	}
	for _, c := range changes {
		switch c.Kind {
		case Started:
			s.insert(newJobEnd(c.Job, c.Time+est.Estimate(c.Job), memTotal))
		case Finished:
			if !s.remove(c.Job.ID) {
				return false
			}
		}
	}
	s.at = jr.Cursor()
	return true
}

// rebuild decorates the whole running set and sorts it.
func (s *ReservationScratch) rebuild(st State, est Estimator, memTotal int) {
	s.buf, s.lo = s.buf[:0], 0
	for _, r := range st.Running() {
		s.buf = append(s.buf, newJobEnd(r.Job, r.Start+est.Estimate(r.Job), memTotal))
	}
	sort.Sort(&s.buf)
	s.at = st.Journal().Cursor()
	s.est, s.memOn = comparableOrNil(est), memTotal != 0
}

// comparableOrNil returns est if == on it cannot panic, else nil.
// Only a comparable estimator is remembered across calls: est != remembered
// then never panics, and an uncomparable one is simply never reused.
func comparableOrNil(est Estimator) Estimator {
	if reflect.ValueOf(est).Comparable() {
		return est
	}
	return nil
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
	// Bring the index up to date: from the journal if it can be, from
	// scratch otherwise.
	if s.est == nil || est != s.est || s.memOn != (memTotal != 0) || !s.catchUp(st.Journal(), est, memTotal) {
		s.rebuild(st, est, memTotal)
	}
	avail := free
	availMem := memFree
	for _, r := range s.buf[s.lo:] {
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
