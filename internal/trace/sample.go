package trace

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
