package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/backfill"
	"repro/internal/sched"
	"repro/internal/serve"
)

// TestDebugHandlerOnlyOnDebugMux checks the pprof endpoints answer on the
// debug mux and that the daemon's own handler does not route them.
func TestDebugHandlerOnlyOnDebugMux(t *testing.T) {
	get := func(h http.Handler, path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	if code := get(debugHandler(), "/debug/pprof/heap"); code != http.StatusOK {
		t.Fatalf("debug mux: /debug/pprof/heap answered %d, want 200", code)
	}
	s, err := serve.New(serve.Config{
		Name: "test", Procs: 8, Policy: sched.FCFS{},
		Backfiller: backfill.NewConservative(backfill.RequestTime{}), TimeScale: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	server := serve.NewServer(s, 4, 0)
	defer server.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap"} {
		if code := get(server.Handler(), path); code != http.StatusNotFound {
			t.Fatalf("daemon handler: %s answered %d, want 404", path, code)
		}
	}
}
