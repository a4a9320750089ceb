package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// SWF field indices (0-based) per the Standard Workload Format definition.
const (
	swfJobNumber = iota
	swfSubmitTime
	swfWaitTime
	swfRunTime
	swfAllocProcs
	swfAvgCPUTime
	swfUsedMemory
	swfReqProcs
	swfReqTime
	swfReqMemory
	swfStatus
	swfUserID
	swfGroupID
	swfExecutable
	swfQueue
	swfPartition
	swfPrecedingJob
	swfThinkTime
	swfNumFields
)

// ParseSWF reads a Standard Workload Format stream. Header comment lines
// (starting with ';') are scanned for "MaxProcs:" / "MaxNodes:" to determine
// the machine size and "MaxMemory:" (KB per processor) for the memory
// capacity; name is attached to the returned trace. Jobs with non-positive
// runtime or processor counts (failed or malformed records) are skipped,
// mirroring how the paper's simulator (RLScheduler) loads traces. Submit
// times are rebased so the first job arrives at 0. Fractional values
// truncate toward zero; a value that is not finite or not within int64, or
// an identity column (status, user, group, executable, queue, partition)
// outside int32, is an error naming the line and field. Of the identity
// columns only user and queue are kept (Job.User, Job.Priority); the status,
// group, executable and partition columns are checked and dropped.
//
// Memory requests come from the requested-memory column (SWF field 10,
// KB per processor), falling back to used memory (field 7); Job.Mem stores
// the total (per-processor value times processors) in KB. The memory
// dimension stays inert unless the header declares a capacity (Trace.Mem).
//
// SWF has no dedicated priority field; per the format definition the queue
// number is the conventional priority carrier ("queues may be used to
// indicate priority"), so Job.Priority mirrors the queue column. Priority is
// likewise inert unless a scheduling scenario enables tiers.
func ParseSWF(r io.Reader, name string) (*Trace, error) {
	t := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	vals := make([]int64, swfNumFields)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			parseSWFHeader(line, t)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < swfReqTime+1 {
			return nil, fmt.Errorf("trace: swf line %d has %d fields, want >= %d", lineNo, len(fields), swfReqTime+1)
		}
		for i := range vals {
			vals[i] = -1
		}
		for i, f := range fields {
			if i >= swfNumFields {
				break
			}
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: swf line %d field %d: %v", lineNo, i+1, err)
			}
			// int64(v) is implementation-defined for NaN, ±Inf and values
			// outside int64, so those are rejected, not converted.
			if !(v >= -0x1p63 && v < 0x1p63) {
				return nil, fmt.Errorf("trace: swf line %d field %d: %q is not a finite value in int64 range", lineNo, i+1, f)
			}
			vals[i] = int64(v)
			if isSWFIdentity(i) && (vals[i] < math.MinInt32 || vals[i] > math.MaxInt32) {
				return nil, fmt.Errorf("trace: swf line %d field %d: %q is outside int32 range", lineNo, i+1, f)
			}
		}
		j := jobFromSWF(vals)
		if j == nil {
			continue // filtered record
		}
		t.Jobs = append(t.Jobs, j)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading swf: %w", err)
	}
	rebase(t.Jobs)
	if t.Procs == 0 {
		t.Procs = maxProcsOf(t.Jobs)
	}
	if t.Mem > 0 {
		// The header stored per-processor KB; scale to the machine total now
		// that the processor count is final. Per-job requests are clamped to
		// the capacity: the requested-memory column is per-processor, so the
		// ceil rounding on write can otherwise nudge a capacity-sized job a
		// few KB past the machine on a round trip.
		t.Mem *= t.Procs
		for _, j := range t.Jobs {
			if j.Mem > t.Mem {
				j.Mem = t.Mem
			}
		}
	}
	return t, nil
}

// isSWFIdentity reports whether field i is one of the identity columns,
// which ParseSWF holds to int32 whether or not Job keeps them.
func isSWFIdentity(i int) bool {
	switch i {
	case swfStatus, swfUserID, swfGroupID, swfExecutable, swfQueue, swfPartition:
		return true
	}
	return false
}

// jobFromSWF converts one SWF record to a Job, or nil if the record should
// be filtered out.
func jobFromSWF(v []int64) *Job {
	procs := v[swfReqProcs]
	if procs <= 0 {
		procs = v[swfAllocProcs]
	}
	run := v[swfRunTime]
	req := v[swfReqTime]
	if req <= 0 {
		req = run
	}
	if procs <= 0 || run <= 0 || req <= 0 || v[swfSubmitTime] < 0 {
		return nil
	}
	memPerProc := v[swfReqMemory]
	if memPerProc <= 0 {
		memPerProc = v[swfUsedMemory]
	}
	mem := int64(0)
	if memPerProc > 0 {
		mem = memPerProc * procs
	}
	pri := v[swfQueue]
	if pri < 0 {
		pri = 0
	}
	return &Job{
		ID:       int(v[swfJobNumber]),
		Submit:   v[swfSubmitTime],
		Runtime:  run,
		Request:  req,
		Procs:    int(procs),
		Mem:      int(mem),
		Priority: int32(pri),
		User:     int32(v[swfUserID]),
	}
}

func parseSWFHeader(line string, t *Trace) {
	body := strings.TrimSpace(strings.TrimLeft(line, "; "))
	for _, key := range []string{"MaxProcs:", "MaxNodes:"} {
		if strings.HasPrefix(body, key) {
			val := strings.TrimSpace(strings.TrimPrefix(body, key))
			if n, err := strconv.Atoi(strings.Fields(val + " x")[0]); err == nil && n > 0 {
				// MaxProcs takes precedence over MaxNodes when both appear.
				if key == "MaxProcs:" || t.Procs == 0 {
					t.Procs = n
				}
			}
		}
	}
	// MaxMemory is KB per processor; the machine capacity is resolved to
	// total KB once the processor count is known (see ParseSWF).
	if strings.HasPrefix(body, "MaxMemory:") {
		val := strings.TrimSpace(strings.TrimPrefix(body, "MaxMemory:"))
		if n, err := strconv.Atoi(strings.Fields(val + " x")[0]); err == nil && n > 0 {
			t.Mem = n // placeholder: per-proc KB, scaled after parsing
		}
	}
}

func rebase(jobs []*Job) {
	if len(jobs) == 0 {
		return
	}
	base := jobs[0].Submit
	for _, j := range jobs {
		j.Submit -= base
	}
}

func maxProcsOf(jobs []*Job) int {
	m := 0
	for _, j := range jobs {
		if j.Procs > m {
			m = j.Procs
		}
	}
	return m
}

// LoadSWFFile parses the SWF file at path; the trace name is derived from
// the file name.
func LoadSWFFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		name = path[i+1:]
	}
	name = strings.TrimSuffix(name, ".swf")
	return ParseSWF(f, name)
}

// SWFWriter streams jobs to a Standard Workload Format stream one row at a
// time, so million-job archives can be written as they are generated without
// ever materializing a job slice (the RSS stays flat regardless of trace
// length). NewSWFWriter emits the header; WriteJob appends one record; Flush
// drains the buffer. WriteSWF is the materialized convenience built on top,
// so the two paths produce byte-identical output.
type SWFWriter struct {
	bw *bufio.Writer
}

// NewSWFWriter writes the SWF header — Trace name, MaxProcs, and (when mem,
// the total machine memory in KB, is positive) MaxMemory in the per-processor
// convention ParseSWF expects — and returns a writer ready for job rows.
func NewSWFWriter(w io.Writer, name string, procs, mem int) (*SWFWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "; Trace: %s\n; MaxProcs: %d\n", name, procs); err != nil {
		return nil, err
	}
	if mem > 0 && procs > 0 {
		if _, err := fmt.Fprintf(bw, "; MaxMemory: %d\n", (mem+procs-1)/procs); err != nil {
			return nil, err
		}
	}
	if _, err := fmt.Fprintf(bw, "; Generated by the rlbackfill reproduction\n"); err != nil {
		return nil, err
	}
	return &SWFWriter{bw: bw}, nil
}

// WriteJob appends one SWF record. Wait time and CPU time are written as -1
// (unknown); requested memory is written per processor (SWF convention);
// the priority tier rides the queue column, where ParseSWF recovers it.
// Status is written as 1 (completed) and group, executable and partition as
// 0, the values every generated job carries.
func (sw *SWFWriter) WriteJob(j *Job) error {
	memPerProc := int64(-1)
	if j.Mem > 0 && j.Procs > 0 {
		memPerProc = int64((j.Mem + j.Procs - 1) / j.Procs)
	}
	_, err := fmt.Fprintf(sw.bw, "%d %d -1 %d %d -1 -1 %d %d %d 1 %d 0 0 %d 0 -1 -1\n",
		j.ID, j.Submit, j.Runtime, j.Procs, j.Procs, j.Request, memPerProc,
		j.User, j.Priority)
	return err
}

// Flush drains the write buffer; call once after the last WriteJob.
func (sw *SWFWriter) Flush() error { return sw.bw.Flush() }

// WriteSWF writes the trace in Standard Workload Format, including MaxProcs
// and (when the memory dimension is active) MaxMemory headers, so that
// generated workloads can be consumed by other SWF tools.
func WriteSWF(w io.Writer, t *Trace) error {
	sw, err := NewSWFWriter(w, t.Name, t.Procs, t.Mem)
	if err != nil {
		return err
	}
	for _, j := range t.Jobs {
		if err := sw.WriteJob(j); err != nil {
			return err
		}
	}
	return sw.Flush()
}

// SaveSWFFile writes the trace to path in SWF format.
func SaveSWFFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSWF(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
