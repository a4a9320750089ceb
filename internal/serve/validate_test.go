package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestValidateFields pins the admission limits field by field: each bad value
// is rejected with a *ValidationError naming exactly the offending field.
func TestValidateFields(t *testing.T) {
	ok := JobRequest{Procs: 4, Mem: 64, Runtime: 100, Request: 200, Priority: 3, IdemKey: "k"}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := []struct {
		name  string
		mut   func(r *JobRequest)
		field string
	}{
		{"zero procs", func(r *JobRequest) { r.Procs = 0 }, "procs"},
		{"negative procs", func(r *JobRequest) { r.Procs = -3 }, "procs"},
		{"huge procs", func(r *JobRequest) { r.Procs = MaxProcs + 1 }, "procs"},
		{"negative mem", func(r *JobRequest) { r.Mem = -1 }, "mem"},
		{"huge mem", func(r *JobRequest) { r.Mem = MaxMem + 1 }, "mem"},
		{"zero runtime", func(r *JobRequest) { r.Runtime = 0 }, "runtime"},
		{"negative runtime", func(r *JobRequest) { r.Runtime = -10 }, "runtime"},
		{"huge runtime", func(r *JobRequest) { r.Runtime = MaxRuntime + 1 }, "runtime"},
		{"negative request", func(r *JobRequest) { r.Request = -1 }, "request"},
		{"huge request", func(r *JobRequest) { r.Request = MaxRuntime + 1 }, "request"},
		{"priority overflow", func(r *JobRequest) { r.Priority = MaxPriority + 1 }, "priority"},
		{"priority underflow", func(r *JobRequest) { r.Priority = -MaxPriority - 1 }, "priority"},
		{"negative priority", func(r *JobRequest) { r.Priority = -1 }, "priority"},
		{"giant idem key", func(r *JobRequest) { r.IdemKey = strings.Repeat("x", MaxIdemKey+1) }, "idempotency-key"},
	}
	for _, tc := range cases {
		req := ok
		tc.mut(&req)
		err := req.Validate()
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Errorf("%s: err %v, want *ValidationError", tc.name, err)
			continue
		}
		if ve.Field != tc.field {
			t.Errorf("%s: field %q, want %q", tc.name, ve.Field, tc.field)
		}
	}
	// Boundary values are accepted: the limits reject garbage, not big jobs.
	max := JobRequest{Procs: MaxProcs, Mem: MaxMem, Runtime: MaxRuntime,
		Request: MaxRuntime, Priority: MaxPriority, IdemKey: strings.Repeat("k", MaxIdemKey)}
	if err := max.Validate(); err != nil {
		t.Fatalf("boundary request rejected: %v", err)
	}
}

// TestServeSubmitValidationHTTP pins the wire contract for bad submissions:
// every malformed body answers 400 with a structured {"error","field"} JSON
// body, and nothing reaches the scheduler.
func TestServeSubmitValidationHTTP(t *testing.T) {
	s, _, ts := newTestDaemon(t, 16, 1000)
	cases := []struct {
		name  string
		body  string
		field string
	}{
		{"malformed json", `{not json`, "body"},
		{"empty body", ``, "body"},
		{"trailing garbage", `{"procs":1,"runtime":10} extra`, "body"},
		{"second object", `{"procs":1,"runtime":10}{"procs":2}`, "body"},
		{"unknown field", `{"procs":1,"runtime":10,"proc":2}`, "body"},
		{"wrong type", `{"procs":"four","runtime":10}`, "procs"},
		{"float procs", `{"procs":1.5,"runtime":10}`, "procs"},
		{"int64 overflow", `{"procs":1,"runtime":99999999999999999999999999}`, "runtime"},
		{"negative runtime", `{"procs":1,"runtime":-5}`, "runtime"},
		{"zero procs", `{"procs":0,"runtime":10}`, "procs"},
		{"huge procs", `{"procs":99999999,"runtime":10}`, "procs"},
		{"oversized body", `{"procs":1,"runtime":10,` +
			`"priority":` + strings.Repeat("1", maxRequestBody+16) + `}`, "body"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, buf.String())
			continue
		}
		var ve struct {
			Error string `json:"error"`
			Field string `json:"field"`
		}
		if err := json.Unmarshal(buf.Bytes(), &ve); err != nil {
			t.Errorf("%s: 400 body is not JSON: %q", tc.name, buf.String())
			continue
		}
		if ve.Error == "" || ve.Field != tc.field {
			t.Errorf("%s: body %q, want structured error on field %q", tc.name, buf.String(), tc.field)
		}
	}
	// The poison never reached the engine: a clean submit still works and is
	// the first accepted job.
	res, err := s.Submit(JobRequest{Procs: 1, Runtime: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != 1 {
		t.Fatalf("first valid job got ID %d; a rejected request leaked through", res.ID)
	}
}

// TestServeSubmitRejectsUnfitJobs checks that a job the engine would refuse
// (a negative priority, more processors than the machine has, more memory
// than its capacity) is rejected at admission with a *ValidationError naming
// the field, over HTTP and through Scheduler.Submit alike: nothing reaches
// the WAL and the next accepted job still gets ID 1.
func TestServeSubmitRejectsUnfitJobs(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(NewManualClock(time.Unix(1700000000, 0)), dir, wal.OSFS{}, 0)
	cfg.Mem = 320
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(NewServer(s, 64, 0).Handler())
	defer ts.Close()
	walSize := func() int64 {
		fi, err := os.Stat(cfg.WALPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	size0 := walSize()
	cases := []struct {
		name  string
		req   JobRequest
		field string
	}{
		{"negative priority", JobRequest{Procs: 1, Runtime: 10, Priority: -1}, "priority"},
		{"wider than the machine", JobRequest{Procs: 33, Runtime: 10}, "procs"},
		{"more memory than the machine", JobRequest{Procs: 1, Mem: 321, Runtime: 10}, "mem"},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL+"/v1/jobs", tc.req)
		var ve ValidationError
		if err := json.Unmarshal(body, &ve); err != nil || resp.StatusCode != http.StatusBadRequest || ve.Field != tc.field {
			t.Errorf("HTTP %s: status %d body %s, want 400 on field %q", tc.name, resp.StatusCode, body, tc.field)
		}
		_, err := s.Submit(tc.req)
		var verr *ValidationError
		if !errors.As(err, &verr) || verr.Field != tc.field {
			t.Errorf("Submit %s: err %v, want *ValidationError on field %q", tc.name, err, tc.field)
		}
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 0 || st.WALRecords != 0 || walSize() != size0 {
		t.Fatalf("after rejections: accepted %d, wal records %d, wal %d bytes (was %d); want nothing appended",
			st.Accepted, st.WALRecords, walSize(), size0)
	}
	// The limits are the machine's own size: a job exactly as wide as it
	// is admitted, and it is job 1.
	res, err := s.Submit(JobRequest{Procs: 32, Mem: 320, Runtime: 10, Priority: MaxPriority})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != 1 {
		t.Fatalf("first accepted job got ID %d, want 1", res.ID)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// FuzzJobRequestDecode drives arbitrary bytes through the HTTP decode path:
// whatever the input, the decoder must not panic and must either produce a
// Validate-clean request or a *ValidationError.
func FuzzJobRequestDecode(f *testing.F) {
	f.Add([]byte(`{"procs":1,"runtime":10}`))
	f.Add([]byte(`{"procs":-1}`))
	f.Add([]byte(`{"procs":1e309,"runtime":10}`))
	f.Add([]byte(`{"procs":1,"runtime":10}{"x":`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`"procs"`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		r.Header.Set("Idempotency-Key", "fuzz")
		w := httptest.NewRecorder()
		req, err := decodeJobRequest(w, r)
		if err != nil {
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("decode error %v is not a *ValidationError", err)
			}
			return
		}
		if verr := req.Validate(); verr != nil {
			t.Fatalf("decode accepted a request that Validate rejects: %+v (%v)", req, verr)
		}
	})
}
