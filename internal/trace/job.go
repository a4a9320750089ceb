// Package trace provides the batch-job model, Standard Workload Format (SWF)
// parsing and writing, workload statistics, job-sequence sampling, and
// statistical surrogate generators for the archive traces the paper evaluates
// on (SDSC-SP2, HPC2N).
package trace

import "fmt"

// Job is one batch job, following the Standard Workload Format field naming
// (Table 1 of the paper; Feitelson et al., "Experience with using the
// Parallel Workloads Archive"). Times are in seconds.
type Job struct {
	// ID is the job number (1-based in SWF files).
	ID int
	// Submit is the submission time relative to the trace start (s_t).
	Submit int64
	// Runtime is the actual runtime observed after execution (AR).
	Runtime int64
	// Request is the user-provided runtime estimate / wall time (r_t).
	// Schedulers kill jobs that exceed it, so users overestimate.
	Request int64
	// Procs is the number of requested processors (n_t).
	Procs int
	// Mem is the total requested memory in abstract capacity units (the SWF
	// requested-memory column times the processor count). Zero means the job
	// carries no memory demand; scheduling treats the memory dimension as
	// absent unless the trace declares a machine capacity (Trace.Mem > 0).
	Mem int
	// Priority is the job's priority tier; higher values are more urgent.
	// Zero is the default tier, so priority-free traces are all-zero and
	// scheduling under them is identical to the priority-unaware code path.
	// SWF carries it in the queue column, which ParseSWF holds to int32.
	Priority int32
	// User is the SWF user ID, the one identity column anything reads
	// (Analyze counts users). It packs with Priority into the last 8 bytes,
	// so Job is 56 bytes on 64-bit platforms. The other SWF identity
	// columns (group, executable, partition, status) are not kept: no
	// scheduler, estimator, observation or report reads them, and
	// SWFWriter writes the values every generated job has.
	User int32
}

// Validate reports whether the job has the minimal attributes scheduling
// requires.
func (j *Job) Validate() error {
	if j.Procs <= 0 {
		return fmt.Errorf("trace: job %d has non-positive processor count %d", j.ID, j.Procs)
	}
	if j.Runtime < 0 {
		return fmt.Errorf("trace: job %d has negative runtime %d", j.ID, j.Runtime)
	}
	if j.Request <= 0 {
		return fmt.Errorf("trace: job %d has non-positive request time %d", j.ID, j.Request)
	}
	if j.Submit < 0 {
		return fmt.Errorf("trace: job %d has negative submit time %d", j.ID, j.Submit)
	}
	if j.Mem < 0 {
		return fmt.Errorf("trace: job %d has negative memory request %d", j.ID, j.Mem)
	}
	if j.Priority < 0 {
		return fmt.Errorf("trace: job %d has negative priority %d", j.ID, j.Priority)
	}
	return nil
}

// Clone returns a copy of the job.
func (j *Job) Clone() *Job {
	c := *j
	return &c
}

// Trace is an ordered collection of jobs plus the size of the machine that
// produced (or should run) them.
type Trace struct {
	// Name identifies the workload (e.g. "SDSC-SP2").
	Name string
	// Procs is the total number of processors in the cluster.
	Procs int
	// Mem is the total machine memory in the same abstract units as Job.Mem.
	// Zero disables the memory dimension: jobs may still carry Mem values
	// (e.g. parsed from an SWF file), but no scheduler constrains on them.
	Mem int
	// Jobs are sorted by non-decreasing submit time.
	Jobs []*Job
}

// Len returns the number of jobs.
func (t *Trace) Len() int { return len(t.Jobs) }

// Clone deep-copies the trace.
func (t *Trace) Clone() *Trace {
	return &Trace{Name: t.Name, Procs: t.Procs, Mem: t.Mem, Jobs: cloneJobs(t.Jobs)}
}

// cloneJobs copies jobs into one slab and returns pointers into it: two
// allocations for any number of jobs.
func cloneJobs(jobs []*Job) []*Job {
	slab := make([]Job, len(jobs))
	out := make([]*Job, len(jobs))
	for i, j := range jobs {
		slab[i] = *j
		out[i] = &slab[i]
	}
	return out
}

// Validate checks every job and the trace-level invariants (sorted submits,
// jobs fit the machine, job IDs unique).
func (t *Trace) Validate() error {
	if t.Procs <= 0 {
		return fmt.Errorf("trace: %q has non-positive machine size %d", t.Name, t.Procs)
	}
	if t.Mem < 0 {
		return fmt.Errorf("trace: %q has negative memory capacity %d", t.Name, t.Mem)
	}
	var prev int64
	idsRise := true // strictly increasing IDs are unique without a set
	for i, j := range t.Jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if j.Procs > t.Procs {
			return fmt.Errorf("trace: job %d requests %d procs > machine size %d", j.ID, j.Procs, t.Procs)
		}
		if t.Mem > 0 && j.Mem > t.Mem {
			return fmt.Errorf("trace: job %d requests %d mem > machine capacity %d", j.ID, j.Mem, t.Mem)
		}
		if j.Submit < prev {
			return fmt.Errorf("trace: job at index %d submitted at %d before previous %d", i, j.Submit, prev)
		}
		prev = j.Submit
		if i > 0 && j.ID <= t.Jobs[i-1].ID {
			idsRise = false
		}
	}
	if !idsRise {
		seen := make(map[int]struct{}, len(t.Jobs))
		for _, j := range t.Jobs {
			if _, ok := seen[j.ID]; ok {
				return fmt.Errorf("trace: %q holds job ID %d twice", t.Name, j.ID)
			}
			seen[j.ID] = struct{}{}
		}
	}
	return nil
}

// Head returns a trace containing the first n jobs (or all of them if the
// trace is shorter), sharing job pointers with the original.
func (t *Trace) Head(n int) *Trace {
	if n > len(t.Jobs) {
		n = len(t.Jobs)
	}
	return &Trace{Name: t.Name, Procs: t.Procs, Mem: t.Mem, Jobs: t.Jobs[:n]}
}
