package cluster

import "fmt"

// Cluster counts a machine's idle processors and, optionally, memory. It
// does not record which job holds what: its user keeps the running jobs (the
// simulator's running heap) and releases exactly what each one took, and
// job IDs are kept unique at admission.
type Cluster struct {
	total, free       int
	memTotal, memFree int // memTotal 0 = memory dimension off
}

// New creates a cluster with n processors and no memory dimension. It panics
// if n <= 0 (a machine must have capacity; the paper's traces use 128-256).
func New(n int) *Cluster { return NewWithMem(n, 0) }

// NewWithMem creates a cluster with n processors and mem memory units; mem 0
// disables the memory dimension. It panics if n <= 0 or mem < 0.
func NewWithMem(n, mem int) *Cluster {
	if n <= 0 || mem < 0 {
		panic(fmt.Sprintf("cluster: bad machine size: %d procs, %d mem", n, mem))
	}
	return &Cluster{total: n, free: n, memTotal: mem, memFree: mem}
}

// Free returns the number of idle processors.
func (c *Cluster) Free() int { return c.free }

// FreeMem returns the idle memory units (0 when the dimension is off).
func (c *Cluster) FreeMem() int { return c.memFree }

// Used returns the number of busy processors.
func (c *Cluster) Used() int { return c.total - c.free }

// Fits reports whether a job needing procs processors can start now.
func (c *Cluster) Fits(procs int) bool { return procs > 0 && procs <= c.free }

// FitsRes reports whether a job needing procs processors and mem memory can
// start now. Memory is ignored when the dimension is off.
func (c *Cluster) FitsRes(procs, mem int) bool {
	return c.Fits(procs) && (c.memTotal == 0 || mem <= c.memFree)
}

// Alloc takes procs processors and mem memory units for one job, or returns
// an error if they are not free. Memory is not charged when the dimension is
// off.
func (c *Cluster) Alloc(procs, mem int) error {
	if !c.FitsRes(procs, mem) {
		return fmt.Errorf("cluster: needs %d procs and %d mem, only %d and %d free", procs, mem, c.free, c.memFree)
	}
	c.free -= procs
	if c.memTotal > 0 {
		c.memFree -= mem
	}
	return nil
}

// Release returns what one Alloc with the same arguments took. It panics if
// that would free more than the machine has, which only a release without
// its Alloc can do.
func (c *Cluster) Release(procs, mem int) {
	c.free += procs
	if c.memTotal > 0 {
		c.memFree += mem
	}
	if c.free > c.total || c.memFree > c.memTotal {
		panic(fmt.Sprintf("cluster: releasing %d procs and %d mem frees more than the machine has", procs, mem))
	}
}
