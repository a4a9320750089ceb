package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// stallServer acknowledges submits from behind one mutex, like the daemon's
// single writer, and holds that mutex for `stall` while serving submit
// number stallAt: every request arriving meanwhile queues behind it.
type stallServer struct {
	mu       sync.Mutex
	n        int
	stallAt  int
	stall    time.Duration
	from, to time.Time
}

func (s *stallServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	if s.n == s.stallAt {
		s.from = time.Now()
		time.Sleep(s.stall)
		s.to = time.Now()
	}
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(serve.SubmitResult{ID: s.n})
}

func testJobs() []*trace.Job {
	return []*trace.Job{{ID: 1, Procs: 1, Runtime: 10, Request: 10}}
}

// A 200 ms stall in an open loop must show in the latency of every request
// that was due while it lasted, not just in the two requests that happened
// to be on the wire (coordinated omission).
func TestOpenLoopChargesStallToEveryDueRequest(t *testing.T) {
	const rate, stall = 200.0, 200 * time.Millisecond
	h := &stallServer{stallAt: 40, stall: stall}
	srv := httptest.NewServer(h)
	defer srv.Close()
	tr := newTransport(2)
	defer tr.CloseIdleConnections()

	var acked atomic.Int64
	t0 := time.Now()
	rs := runLoad(srv.URL, tr, 2, loadPlan{rate: rate, duration: time.Second, jobs: testJobs(), key: "t"}, &acked, nil)
	if len(rs) != 200 {
		t.Fatalf("open loop sent %d requests, want the 200 scheduled", len(rs))
	}
	from, to := h.from.Sub(t0), h.to.Sub(t0)
	// The second connection blocks on the mutex one spacing into the stall,
	// so requests due from then on had no connection to go out on.
	slack := 15 * time.Millisecond
	charged, dueDuring := 0, 0
	for _, r := range rs {
		if r.failed() {
			t.Fatalf("request %d failed: code %d", r.n, r.code)
		}
		if r.due < from+slack || r.due > to-slack {
			continue
		}
		dueDuring++
		if r.latency() >= to-r.due-slack {
			charged++
		} else {
			t.Errorf("request due at %v (stall %v..%v) charged only %v", r.due, from, to, r.latency())
		}
	}
	if want := int(rate*(stall-2*slack).Seconds()) - 2; dueDuring < want {
		t.Fatalf("only %d requests were due during the stall, want >= %d", dueDuring, want)
	}
	sum := summarize(rs, time.Second)
	if sum.lateMsMax < float64((stall - 2*slack).Milliseconds()) {
		t.Errorf("generator lateness %.1f ms does not show the %v stall", sum.lateMsMax, stall)
	}
	t.Logf("%d of %d requests due during the stall charged with it; generator ran up to %.0f ms late",
		charged, dueDuring, sum.lateMsMax)
}

// The same stall in a closed loop reaches only the requests on the wire:
// that is the mode's definition, and the reason serve-paced is open-loop.
func TestClosedLoopSharesWorkerCode(t *testing.T) {
	h := &stallServer{stallAt: 40, stall: 100 * time.Millisecond}
	srv := httptest.NewServer(h)
	defer srv.Close()
	tr := newTransport(2)
	defer tr.CloseIdleConnections()

	var acked atomic.Int64
	rs := runLoad(srv.URL, tr, 2, loadPlan{statusEvery: 4, duration: 300 * time.Millisecond, jobs: testJobs(), key: "t"}, &acked, nil)
	slow, status := 0, 0
	for _, r := range rs {
		if r.due != -1 {
			t.Fatalf("closed-loop op carries a due time %v", r.due)
		}
		if r.latency() > 50*time.Millisecond {
			slow++
		}
		if r.kind == opStatus {
			status++
		}
	}
	if slow < 1 || slow > 2 {
		t.Errorf("%d slow requests, want the 1-2 that were on the wire", slow)
	}
	if status == 0 {
		t.Error("no status queries were mixed in")
	}
	if int(acked.Load()) == 0 {
		t.Error("acknowledged ids were not tracked")
	}
}

func TestPlannerSchedule(t *testing.T) {
	pl := newPlanner(loadPlan{rate: 100, statusEvery: 2, cancelEvery: 4, duration: 40 * time.Millisecond, jobs: testJobs(), key: "k"})
	var kinds []opKind
	last := time.Duration(-1)
	for {
		o, ok := pl.next(0)
		if !ok {
			break
		}
		if o.due <= last {
			t.Fatalf("schedule not strictly increasing: %v after %v", o.due, last)
		}
		last = o.due
		kinds = append(kinds, o.kind)
	}
	want := []opKind{opSubmit, opSubmit, opStatus, opSubmit, opSubmit, opStatus, opCancel}
	if len(kinds) != len(want) {
		t.Fatalf("got %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("got %v, want %v", kinds, want)
		}
	}
}
