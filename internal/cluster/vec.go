package cluster

// VecProfile generalises the skyline Profile to a small fixed resource
// vector: processors plus an optional memory dimension. It is a thin
// composition of per-dimension scalar profiles — the procs dimension IS a
// scalar Profile, so with the memory dimension off every operation is a
// direct delegation and the width-1 cost model (FindStart, Trim,
// ResetSpans) is exactly the scalar skyline's. The fuzz differential
// in profile_test pins that segment-for-segment.
//
// A feasible start time must satisfy both dimensions simultaneously.
// FindStart alternates the two scalar searches to a fixed point: each
// dimension's FindStart is monotone (never returns a time before its lower
// bound) and idempotent once feasible, so the alternation only moves the
// candidate forward and stops at the first time both dimensions accept —
// the earliest jointly feasible start.
type VecProfile struct {
	p      Profile // processors
	m      Profile // memory units; valid only when hasMem
	hasMem bool

	memSpans []Span // scratch for ResetSpans
}

// NewVecProfile creates a profile with total processors and memTotal memory
// units (0 = memory dimension off) all free from time `from` onwards.
func NewVecProfile(total, memTotal int, from int64) *VecProfile {
	v := &VecProfile{}
	v.Reset(total, memTotal, from)
	return v
}

// Reset reinitialises both dimensions in place, reusing their storage.
func (v *VecProfile) Reset(total, memTotal int, from int64) {
	v.p.Reset(total, from)
	v.hasMem = memTotal > 0
	if v.hasMem {
		v.m.Reset(memTotal, from)
	}
}

// HasMem reports whether the memory dimension is active.
func (v *VecProfile) HasMem() bool { return v.hasMem }

// TotalMem returns the memory capacity (0 when the dimension is off).
func (v *VecProfile) TotalMem() int {
	if !v.hasMem {
		return 0
	}
	return v.m.total
}

// ResetSpans reinitialises both dimensions with every span reserved over
// [from, span.End): span.Procs processors and span.Mem memory units. Spans
// without memory (Mem <= 0) simply do not appear in the memory skyline. The
// spans slice is reordered in place (by the procs-dimension build).
func (v *VecProfile) ResetSpans(total, memTotal int, from int64, spans []Span) {
	v.hasMem = memTotal > 0
	if v.hasMem {
		// Build the memory skyline first: the procs build reorders spans,
		// but the mem scratch is copied out before that happens anyway.
		v.memSpans = v.memSpans[:0]
		for _, s := range spans {
			if s.Mem > 0 {
				v.memSpans = append(v.memSpans, Span{End: s.End, Procs: s.Mem})
			}
		}
		v.m.ResetSpans(memTotal, from, v.memSpans)
	}
	v.p.ResetSpans(total, from, spans)
}

// FreeAt returns the free processors at time t.
func (v *VecProfile) FreeAt(t int64) int { return v.p.FreeAt(t) }

// FreeMemAt returns the free memory units at time t (the full capacity,
// i.e. 0, when the dimension is off).
func (v *VecProfile) FreeMemAt(t int64) int {
	if !v.hasMem {
		return 0
	}
	return v.m.FreeAt(t)
}

// MinFree returns the minimum free processors over [start, end).
func (v *VecProfile) MinFree(start, end int64) int { return v.p.MinFree(start, end) }

// MinFreeMem returns the minimum free memory units over [start, end).
func (v *VecProfile) MinFreeMem(start, end int64) int {
	if !v.hasMem {
		return 0
	}
	return v.m.MinFree(start, end)
}

// Fits reports whether a (procs, mem) demand fits at every instant of
// [start, end). Memory is ignored when the dimension is off or undemanded.
func (v *VecProfile) Fits(start, end int64, procs, mem int) bool {
	if v.p.MinFree(start, end) < procs {
		return false
	}
	return !v.hasMem || mem <= 0 || v.m.MinFree(start, end) >= mem
}

// Reserve subtracts (procs, mem) over [start, end). Feasibility is checked
// on both dimensions before either is touched, so a failed reserve leaves
// the whole vector profile unchanged — there are no partial reservations.
func (v *VecProfile) Reserve(start, end int64, procs, mem int) error {
	if !v.hasMem || mem <= 0 {
		return v.p.Reserve(start, end, procs)
	}
	if procs <= 0 || end <= start {
		return v.p.Reserve(start, end, procs) // canonical validation errors
	}
	if v.p.MinFree(start, end) < procs {
		return v.p.Reserve(start, end, procs) // canonical capacity error
	}
	if err := v.m.Reserve(start, end, mem); err != nil {
		return err
	}
	return v.p.ReserveFound(start, end, procs) // pre-checked above
}

// ReserveFound is Reserve for windows the caller located via FindStart (or
// otherwise proved feasible on both dimensions): the capacity pre-scans are
// skipped. Malformed arguments fall back to the fully checked Reserve.
func (v *VecProfile) ReserveFound(start, end int64, procs, mem int) error {
	if !v.hasMem || mem <= 0 {
		return v.p.ReserveFound(start, end, procs)
	}
	if procs <= 0 || procs > v.p.total || mem > v.m.total || end <= start {
		return v.Reserve(start, end, procs, mem)
	}
	if err := v.p.ReserveFound(start, end, procs); err != nil {
		return err
	}
	return v.m.ReserveFound(start, end, mem)
}

// Trim drops both dimensions' past (Profile.Trim): afterwards the profile
// starts at t, and both free functions from t on are unchanged. Neither
// dimension copies its skyline to do it.
func (v *VecProfile) Trim(t int64) {
	v.p.Trim(t)
	if v.hasMem {
		v.m.Trim(t)
	}
}

// FindStart returns the earliest time >= after at which procs processors and
// mem memory units are simultaneously free for `duration` seconds. With the
// memory dimension off (or no memory demand) this is exactly the scalar
// walk; otherwise the two scalar searches alternate to a fixed point (see
// the type comment for why that converges on the earliest joint start).
func (v *VecProfile) FindStart(after, duration int64, procs, mem int) int64 {
	cand := v.p.FindStart(after, duration, procs)
	if !v.hasMem || mem <= 0 {
		return cand
	}
	for {
		c2 := v.m.FindStart(cand, duration, mem)
		if c2 == cand {
			return cand
		}
		c3 := v.p.FindStart(c2, duration, procs)
		if c3 == c2 {
			return c2
		}
		cand = c3
	}
}
