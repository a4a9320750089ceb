package trace

import "repro/internal/stats"

// SampleSequence extracts a random contiguous sequence of n jobs from the
// trace, cloning the jobs and rebasing submit times so the first job arrives
// at time 0. This mirrors the paper's evaluation protocol (§4.3): random
// 256-job sequences for training and 1024-job sequences for testing. If the
// trace has fewer than n jobs the whole trace is returned; a negative n
// yields an empty trace.
func SampleSequence(t *Trace, rng *stats.RNG, n int) *Trace {
	n = max(n, 0)
	if n >= len(t.Jobs) {
		c := t.Clone()
		rebase(c.Jobs)
		return c
	}
	start := rng.Intn(len(t.Jobs) - n + 1)
	return Slice(t, start, n)
}

// Slice clones n jobs starting at index start and rebases their submit times
// to 0. start is clamped to [0, t.Len()] and n to [0, t.Len()-start], so
// out-of-range arguments yield a shorter or empty trace.
func Slice(t *Trace, start, n int) *Trace {
	start = min(max(start, 0), len(t.Jobs))
	n = min(max(n, 0), len(t.Jobs)-start)
	c := &Trace{Name: t.Name, Procs: t.Procs, Mem: t.Mem, Jobs: cloneJobs(t.Jobs[start : start+n])}
	rebase(c.Jobs)
	return c
}

// Split partitions the trace into a training prefix containing frac of the
// jobs and a testing suffix with the remainder. Both halves share the clone
// semantics of Slice (independent jobs, rebased submit times).
func Split(t *Trace, frac float64) (train, test *Trace) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	cut := int(float64(len(t.Jobs)) * frac)
	return Slice(t, 0, cut), Slice(t, cut, len(t.Jobs)-cut)
}
