package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backfill"
	"repro/internal/replica"
	"repro/internal/sched"
	"repro/internal/wal"
)

// newTestDaemon spins a real-clock daemon at high time scale behind an
// httptest server.
func newTestDaemon(t *testing.T, procs int, scale float64) (*Scheduler, *Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Name: "test", Procs: procs,
		Policy:     sched.FCFS{},
		Backfiller: backfill.NewConservative(backfill.RequestTime{}),
		TimeScale:  scale,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	sv := NewServer(s, 64, 0)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	return s, sv, ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestServeConcurrentClients hammers one daemon with concurrent submitters,
// status pollers and cancelers, then drains and checks the books balance:
// every accepted job is either recorded (started), still queued or pending,
// or canceled. This is the primary -race -cpu 1,4 target.
func TestServeConcurrentClients(t *testing.T) {
	s, _, ts := newTestDaemon(t, 64, 10000)
	const workers, perWorker = 16, 25
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, body := post(t, ts.URL+"/v1/jobs", JobRequest{Procs: 1 + (w+i)%8, Runtime: int64(10 + i*7)})
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit: status %d: %s", resp.StatusCode, body)
					return
				}
				accepted.Add(1)
				var res SubmitResult
				if err := json.Unmarshal(body, &res); err != nil {
					t.Errorf("submit response: %v", err)
					return
				}
				switch i % 3 {
				case 0:
					r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, res.ID))
					if err != nil {
						t.Errorf("status: %v", err)
						return
					}
					r.Body.Close()
				case 1:
					req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, res.ID), nil)
					r, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Errorf("cancel: %v", err)
						return
					}
					r.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	st, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(st.Records) + len(st.Queued) + len(st.Pending) + len(st.Canceled))
	if accepted.Load() != int64(workers*perWorker) || total != accepted.Load() {
		t.Fatalf("accounting: accepted %d, records %d + queued %d + pending %d + canceled %d = %d",
			accepted.Load(), len(st.Records), len(st.Queued), len(st.Pending), len(st.Canceled), total)
	}
}

// TestServeDrainRejectsNewWork pins the drain contract: once draining,
// submissions get 503, health goes unhealthy, but status queries still work.
func TestServeDrainRejectsNewWork(t *testing.T) {
	s, _, ts := newTestDaemon(t, 8, 1000)
	resp, body := post(t, ts.URL+"/v1/jobs", JobRequest{Procs: 1, Runtime: 100})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var res SubmitResult
	json.Unmarshal(body, &res)

	s.StartDraining()
	resp, _ = post(t, ts.URL+"/v1/jobs", JobRequest{Procs: 1, Runtime: 100})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", r.StatusCode)
	}
	r, err = http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, res.ID))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status while draining: %d, want 200", r.StatusCode)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	resp, _ = post(t, ts.URL+"/v1/jobs", JobRequest{Procs: 1, Runtime: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: %d, want 503", resp.StatusCode)
	}
}

// TestServeStatusCodes checks the error paths of the HTTP surface.
func TestServeStatusCodes(t *testing.T) {
	s, _, ts := newTestDaemon(t, 8, 1000)
	defer s.Drain()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d, want 400", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/jobs", JobRequest{Procs: 99, Runtime: 10})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("too-wide job: %d, want 400", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/v1/jobs/424242")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", r.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/424242", nil)
	r, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("cancel unknown job: %d, want 409", r.StatusCode)
	}
	r, err = http.Get(ts.URL + "/v1/jobs/zero")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id: %d, want 400", r.StatusCode)
	}
}

// TestServeMetricsEndpoint pins the Prometheus exposition: after traffic the
// counters and latency histogram series must be present.
func TestServeMetricsEndpoint(t *testing.T) {
	s, _, ts := newTestDaemon(t, 8, 1000)
	defer s.Drain()
	for i := 0; i < 5; i++ {
		resp, body := post(t, ts.URL+"/v1/jobs", JobRequest{Procs: 1, Runtime: 60})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	r.Body.Close()
	out := buf.String()
	for _, want := range []string{
		"rlbf_submissions_total 5",
		"# TYPE rlbf_decision_latency_seconds histogram",
		"rlbf_submit_latency_seconds_count 5",
		"# TYPE rlbf_command_wait_seconds histogram",
		`rlbf_decision_latency_seconds_bucket{le="+Inf"}`,
		"# TYPE rlbf_queue_depth gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// TestServeStatz checks the accounting endpoint over HTTP.
func TestServeStatz(t *testing.T) {
	s, _, ts := newTestDaemon(t, 8, 1000)
	defer s.Drain()
	post(t, ts.URL+"/v1/jobs", JobRequest{Procs: 4, Runtime: 300})
	r, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st Stats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 1 || st.Procs != 8 || st.Name != "test" {
		t.Fatalf("statz %+v", st)
	}
}

// TestServeIdempotencyHeader pins the HTTP contract of the Idempotency-Key
// header: a replayed key gets the original job back and the daemon accepts
// only one copy.
func TestServeIdempotencyHeader(t *testing.T) {
	s, _, ts := newTestDaemon(t, 8, 1000)
	defer s.Drain()

	submit := func() SubmitResult {
		t.Helper()
		data, _ := json.Marshal(JobRequest{Procs: 1, Runtime: 60})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(data))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", "retry-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d", resp.StatusCode)
		}
		var res SubmitResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := submit()
	if first.Duplicate {
		t.Fatalf("first submission marked duplicate: %+v", first)
	}
	second := submit()
	if !second.Duplicate || second.ID != first.ID {
		t.Fatalf("retry got %+v, want duplicate of job %d", second, first.ID)
	}
	stats, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accepted != 1 {
		t.Fatalf("accepted %d, want 1", stats.Accepted)
	}
}

// TestServeRetriedSubmitKeepsPrediction pins that a retried submission of a
// job that is still queued is acknowledged with the same predicted start as
// the original ack and /v1/jobs/{id}, not with -1.
func TestServeRetriedSubmitKeepsPrediction(t *testing.T) {
	s, _, ts := newTestDaemon(t, 8, 1000)
	defer s.Drain()

	submit := func(req JobRequest, key string) SubmitResult {
		t.Helper()
		data, _ := json.Marshal(req)
		hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(data))
		hreq.Header.Set("Content-Type", "application/json")
		if key != "" {
			hreq.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d", resp.StatusCode)
		}
		var res SubmitResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	// The whole machine for ~1000 s of wall time, then a job that must wait.
	if blocker := submit(JobRequest{Procs: 8, Runtime: 1_000_000}, ""); !blocker.Started {
		t.Fatalf("blocker did not start: %+v", blocker)
	}
	first := submit(JobRequest{Procs: 1, Runtime: 60}, "retry-queued")
	if first.Started || first.PredictedStart < 0 {
		t.Fatalf("queued job's ack %+v: want a prediction", first)
	}
	retry := submit(JobRequest{Procs: 1, Runtime: 60}, "retry-queued")
	if !retry.Duplicate || retry.ID != first.ID || retry.Started || retry.PredictedStart != first.PredictedStart {
		t.Fatalf("retry got %+v, want a duplicate of %+v with the same prediction", retry, first)
	}
	r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, first.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != "queued" || st.PredictedStart != retry.PredictedStart {
		t.Fatalf("status %+v, retry predicted %d", st, retry.PredictedStart)
	}
}

// TestServeLoadShedding pins the overload contract: once the admission queue
// is full, further requests are shed immediately with 429 + Retry-After
// instead of being parked, and the parked requests still complete.
func TestServeLoadShedding(t *testing.T) {
	clk := NewManualClock(time.Unix(1700000000, 0))
	s, err := New(testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain()
	sv := NewServer(s, 1, 1) // one handler slot, one waiter
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	// Hold the only slot so HTTP requests park waiting for it.
	sv.slots <- struct{}{}
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			r, err := http.Get(ts.URL + "/statz")
			if err != nil {
				done <- -1
				return
			}
			r.Body.Close()
			done <- r.StatusCode
		}()
	}
	for i := 0; sv.inflight.Load() < 2 && i < 400; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if sv.inflight.Load() != 2 {
		t.Fatalf("inflight %d, want 2 parked requests", sv.inflight.Load())
	}

	r, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: %d, want 429", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if s.mShed.Value() != 1 {
		t.Fatalf("shed counter %d, want 1", s.mShed.Value())
	}

	<-sv.slots
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("parked request finished with %d, want 200", code)
		}
	}
}

// TestServeCloseReleasesParkedRequests pins Close's promise: a request
// parked behind a held slot is answered 503 when the server closes, instead
// of waiting for the slot. A second Close is a no-op.
func TestServeCloseReleasesParkedRequests(t *testing.T) {
	sv := NewServer(nil, 1, 1) // one handler slot, one waiter
	release := make(chan struct{})
	h := sv.bounded(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.WriteHeader(http.StatusOK)
	})
	serve := func(done chan<- int) {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
		done <- rec.Code
	}

	holder, parked := make(chan int, 1), make(chan int, 1)
	go serve(holder)
	for i := 0; len(sv.slots) < 1 && i < 400; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	go serve(parked)
	for i := 0; sv.inflight.Load() < 2 && i < 400; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if sv.inflight.Load() != 2 {
		t.Fatalf("inflight %d, want one holder and one parked request", sv.inflight.Load())
	}

	sv.Close()
	sv.Close()
	select {
	case code := <-parked:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("parked request finished with %d, want 503", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked request still waiting 5 s after Close")
	}
	close(release)
	if code := <-holder; code != http.StatusOK {
		t.Fatalf("slot holder finished with %d, want 200", code)
	}
}

// TestServeHealthzDegraded pins that a durability failure is surfaced through
// /healthz and /metrics while the daemon keeps accepting work.
func TestServeHealthzDegraded(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS{})
	clk := NewManualClock(time.Unix(1700000000, 0))
	cfg := walConfig(clk, dir, ffs, 0)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	sv := NewServer(s, 8, 0)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	health := func() replica.Health {
		t.Helper()
		r, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("healthz: %d, want 200", r.StatusCode)
		}
		var h replica.Health
		if err := json.NewDecoder(r.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := health(); h.Status != "ok" || h.Role != "primary" || h.Gen == 0 {
		t.Fatalf("healthy daemon reports %+v", h)
	}

	ffs.FailSyncsAfter(0)
	resp, body := post(t, ts.URL+"/v1/jobs", JobRequest{Procs: 1, Runtime: 60})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit during disk failure: %d %s (degraded mode must keep accepting)", resp.StatusCode, body)
	}
	if h := health(); h.Status != "degraded" || h.Reason == "" {
		t.Fatalf("degraded daemon reports %+v", h)
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	r.Body.Close()
	if !strings.Contains(buf.String(), "rlbf_degraded 1") {
		t.Fatal("metrics missing rlbf_degraded 1")
	}
	ffs.FailSyncsAfter(-1) // let the drain snapshot land
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}
