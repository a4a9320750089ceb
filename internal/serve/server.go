package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/pool"
	"repro/internal/replica"
)

// Server is the HTTP/JSON front end over a Scheduler. Request handling is
// bounded by an internal/pool semaphore: at most MaxInflight requests hold a
// slot at once, and up to maxQueued more wait FIFO inside Acquire — under
// overload the daemon degrades to bounded queueing, and past the queue bound
// it sheds load with 429 + Retry-After instead of letting latency and
// goroutine count grow without limit. Submissions carry an optional
// Idempotency-Key header, so a shed or timed-out request can be retried
// without risk of double-enqueueing.
//
// Routes:
//
//	POST   /v1/jobs        submit a job        (JobRequest -> SubmitResult)
//	GET    /v1/jobs/{id}   job status          (JobStatus)
//	DELETE /v1/jobs/{id}   cancel a job        ({"id":N,"canceled":bool})
//	GET    /statz          daemon accounting   (Stats)
//	GET    /metrics        Prometheus text exposition
//	GET    /healthz        liveness (ok / degraded, 503 once draining)
type Server struct {
	sched    *Scheduler
	slots    *pool.Pool
	maxLoad  int64
	inflight atomic.Int64 // requests holding or waiting for a slot
}

// NewServer wraps a scheduler. maxInflight bounds concurrently handled
// requests (< 1 defaults to 256); maxQueued bounds how many more may wait
// for a slot before load shedding kicks in (< 1 defaults to 4×maxInflight).
func NewServer(s *Scheduler, maxInflight, maxQueued int) *Server {
	if maxInflight < 1 {
		maxInflight = 256
	}
	if maxQueued < 1 {
		maxQueued = 4 * maxInflight
	}
	return &Server{sched: s, slots: pool.New(maxInflight), maxLoad: int64(maxInflight + maxQueued)}
}

// Handler returns the daemon's route mux.
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", sv.bounded(sv.handleJobs))
	mux.HandleFunc("/v1/jobs/", sv.bounded(sv.handleJob))
	mux.HandleFunc("/statz", sv.bounded(sv.handleStatz))
	mux.HandleFunc("/metrics", sv.handleMetrics)
	mux.HandleFunc("/healthz", sv.handleHealthz)
	if feed := sv.sched.Feed(); feed != nil {
		// Replication endpoints (stream/snapshot/history) for followers.
		// Deliberately outside the admission semaphore: replication must keep
		// flowing while client load is being shed.
		replica.NewHandler(feed, sv.sched).Register(mux)
	}
	return mux
}

// bounded wraps a handler with the admission semaphore and its shedding
// bound: a request that would make the waiting line exceed maxQueued is
// turned away immediately with 429 + Retry-After, never parked.
func (sv *Server) bounded(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if sv.inflight.Add(1) > sv.maxLoad {
			sv.inflight.Add(-1)
			sv.sched.mShed.Inc()
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "admission queue full, retry later")
			return
		}
		defer sv.inflight.Add(-1)
		if sv.slots.Acquire(1) == 0 {
			httpError(w, http.StatusServiceUnavailable, "server shutting down")
			return
		}
		defer sv.slots.Release(1)
		h(w, r)
	}
}

// Close aborts the admission pool, releasing queued requests with a 503.
func (sv *Server) Close() { sv.slots.Abort() }

func (sv *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req, err := decodeJobRequest(w, r)
	if err != nil {
		writeValidation(w, err)
		return
	}
	res, err := sv.sched.Submit(req)
	if sv.writeRoleError(w, err) {
		return
	}
	switch {
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrStopped):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		writeValidation(w, err)
	default:
		writeJSON(w, http.StatusAccepted, res)
	}
}

// writeRoleError maps replica-role refusals: a follower answers 503 with a
// Retry-After and a leader hint so clients fail over; a fenced ex-primary
// answers 409 — retrying here is pointless, the generation is stale for good.
func (sv *Server) writeRoleError(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, ErrFollower):
		w.Header().Set("Retry-After", "1")
		if leader := sv.sched.LeaderHint(); leader != "" {
			w.Header().Set("X-Rlbf-Leader", leader)
		}
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return true
	case errors.Is(err, ErrFenced):
		httpError(w, http.StatusConflict, err.Error())
		return true
	}
	return false
}

// writeValidation renders a validation failure as a structured 400 body
// ({"error": ..., "field": ...}); other errors keep the plain error shape.
func writeValidation(w http.ResponseWriter, err error) {
	var ve *ValidationError
	if errors.As(err, &ve) {
		writeJSON(w, http.StatusBadRequest, ve)
		return
	}
	httpError(w, http.StatusBadRequest, err.Error())
}

func (sv *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, err := strconv.Atoi(idStr)
	if err != nil || id < 1 {
		httpError(w, http.StatusBadRequest, "bad job id "+idStr)
		return
	}
	switch r.Method {
	case http.MethodGet:
		st, err := sv.sched.Status(id)
		if err != nil {
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		code := http.StatusOK
		if st.State == "unknown" {
			code = http.StatusNotFound
		}
		writeJSON(w, code, st)
	case http.MethodDelete:
		ok, err := sv.sched.CancelJob(id)
		if sv.writeRoleError(w, err) {
			return
		}
		if err != nil {
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		code := http.StatusOK
		if !ok {
			code = http.StatusConflict // already started, finished, or unknown
		}
		writeJSON(w, code, map[string]any{"id": id, "canceled": ok})
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or DELETE only")
	}
}

func (sv *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	st, err := sv.sched.Stats()
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (sv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	sv.sched.Registry().WritePrometheus(w)
}

// handleHealthz reports liveness plus the replica position (name, role, WAL
// generation, applied records) that peers' election and fencing probes read.
// Degraded (durability lost, scheduling continues in-memory) still answers
// 200 so orchestrators don't kill a daemon that is holding live jobs, but the
// status and reason flag it for alerting; draining answers 503 so load
// balancers stop routing here — the body still carries the position, because
// a fencing probe against a draining peer must see its generation.
func (sv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := replica.Health{
		Status:  "ok",
		Name:    sv.sched.cfg.Name,
		Role:    sv.sched.Role(),
		Gen:     sv.sched.WALGen(),
		Applied: sv.sched.WALApplied(),
		LeaseMS: sv.sched.rep.gLeaseAge.Value() * 1000,
	}
	code := http.StatusOK
	switch {
	case sv.sched.Draining():
		h.Status, h.Reason = "draining", "draining"
		code = http.StatusServiceUnavailable
	case sv.sched.Degraded():
		h.Status, h.Reason = "degraded", sv.sched.DegradedReason()
	}
	writeJSON(w, code, h)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
