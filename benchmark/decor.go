package main

import (
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backfill"
	"repro/internal/trace"
	"repro/internal/wal"
)

// The three decorators below are how a traced run looks inside the layers
// without touching them: each wraps an interface the repo already exposes
// for injection and records a span plus a few counts around the call.

// reqHeader carries the load generator's request id to the handler
// decorator, so client and handler spans of one request share it.
const reqHeader = "X-Bench-Req"

// timedBackfiller times every Backfill call and counts what it did. It
// deliberately does not implement backfill.Cloneable: a sharded replay would
// clone the inner backfiller and lose the counts, so sharded runs use the
// undecorated backfiller (README, "Decorators").
type timedBackfiller struct {
	inner backfill.Backfiller
	buf   *spanBuf

	calls   int
	started int
	busy    time.Duration
	callMs  []float64
	qlen    []float64
	running []float64
}

func (t *timedBackfiller) Name() string { return t.inner.Name() }

func (t *timedBackfiller) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	if t.buf.paused() {
		t.inner.Backfill(st, head, queue)
		return
	}
	cs := countingState{State: st}
	t0 := time.Now()
	t.inner.Backfill(&cs, head, queue)
	t1 := time.Now()
	d := t1.Sub(t0)
	t.calls++
	t.started += cs.started
	t.busy += d
	t.callMs = append(t.callMs, d.Seconds()*1e3)
	t.qlen = append(t.qlen, float64(len(queue)+1))
	t.running = append(t.running, float64(len(st.Running())))
	t.buf.add("backfill.round", 0, 0, t0, t1)
}

// report sets the backfill.* metrics from what the decorator saw.
func (t *timedBackfiller) report(c *runCtx) {
	c.set("backfill.calls", float64(t.calls))
	c.set("backfill.busy_s", t.busy.Seconds())
	c.set("backfill.call_ms_p99", percentile(t.callMs, 0.99))
	c.set("backfill.queue_len_p50", median(t.qlen))
	c.set("backfill.queue_len_max", percentile(t.qlen, 1))
	c.set("backfill.started", float64(t.started))
	if t.calls > 0 {
		c.set("backfill.start_ratio", float64(t.started)/float64(t.calls))
	}
}

// countingState forwards to the engine and counts the jobs the backfiller
// starts. It forwards the optional memory dimension too, so backfill.MemOf
// sees exactly what it would see on the bare engine.
type countingState struct {
	backfill.State
	started int
}

func (c *countingState) StartJob(j *trace.Job) {
	c.started++
	c.State.StartJob(j)
}

func (c *countingState) FreeMem() int {
	if ms, ok := c.State.(backfill.MemState); ok {
		return ms.FreeMem()
	}
	return 0
}

func (c *countingState) TotalMem() int {
	if ms, ok := c.State.(backfill.MemState); ok {
		return ms.TotalMem()
	}
	return 0
}

// timedFS wraps a wal.FS so every Write and Sync on a file it opens is
// timed. Counts are kept per file kind (by suffix): the command log is the
// layer under study; history and snapshot traffic is recorded as spans only.
type timedFS struct {
	wal.FS
	buf *spanBuf

	mu       sync.Mutex
	appends  int
	bytes    int64
	syncs    int
	appendUs []float64
	syncMs   []float64
}

func (f *timedFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f, isWAL: strings.HasSuffix(name, ".wal")}, nil
}

type timedFile struct {
	wal.File
	fs    *timedFS
	isWAL bool
}

func (f *timedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	t1 := time.Now()
	f.fs.buf.add("wal.write", 0, 0, t0, t1)
	if f.isWAL && !f.fs.buf.paused() {
		f.fs.mu.Lock()
		f.fs.appends++
		f.fs.bytes += int64(n)
		f.fs.appendUs = append(f.fs.appendUs, t1.Sub(t0).Seconds()*1e6)
		f.fs.mu.Unlock()
	}
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	t1 := time.Now()
	f.fs.buf.add("wal.sync", 0, 0, t0, t1)
	if f.isWAL && !f.fs.buf.paused() {
		f.fs.mu.Lock()
		f.fs.syncs++
		f.fs.syncMs = append(f.fs.syncMs, t1.Sub(t0).Seconds()*1e3)
		f.fs.mu.Unlock()
	}
	return err
}

// timedHandler records one span per request, named after the route, and
// counts 5xx responses, so they show even if a client gave up waiting.
type timedHandler struct {
	inner http.Handler
	buf   *spanBuf
	n5xx  atomic.Int64
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
	t0 := time.Now()
	h.inner.ServeHTTP(cw, r)
	t1 := time.Now()
	h.buf.add(routeName(r), req, 0, t0, t1)
	if cw.code >= 500 {
		h.n5xx.Add(1)
	}
}

func routeName(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/jobs" && r.Method == http.MethodPost:
		return "serve.submit"
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/") && r.Method == http.MethodGet:
		return "serve.status"
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/") && r.Method == http.MethodDelete:
		return "serve.cancel"
	case strings.HasPrefix(r.URL.Path, "/replica/"):
		return "serve.replica"
	}
	return "serve.other"
}

type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}
