package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/backfill"
	"repro/internal/sched"
	"repro/internal/serve"
)

// TestMain lets a test run the command itself: with RLBF_SERVE_ARGS set, the
// test binary behaves as rlbf-serve with those (space-separated) arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("RLBF_SERVE_ARGS"); ok {
		os.Args = append([]string{"rlbf-serve"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsOutOfRangeFlags checks a negative -predict-cap, -compact-every,
// -lease, -ack-timeout or -round-budget and a negative or non-finite
// -starvation-bound or -scale stop the daemon at startup with exit 2 and a
// message naming the flag, before it opens its WAL or snapshot.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, c := range []struct{ args, flag string }{
		{"-predict-cap -1", "-predict-cap"},
		{"-compact-every -7", "-compact-every"},
		{"-starvation-bound -1", "-starvation-bound"},
		{"-starvation-bound NaN", "-starvation-bound"},
		{"-starvation-bound +Inf", "-starvation-bound"},
		{"-scale NaN", "-scale"},
		{"-scale +Inf", "-scale"},
		{"-scale -2", "-scale"},
		{"-lease -1s", "-lease"},
		{"-ack-timeout -5s", "-ack-timeout"},
		{"-round-budget -1s", "-round-budget"},
	} {
		dir := t.TempDir()
		args := "-addr 127.0.0.1:0 -wal " + filepath.Join(dir, "s.wal") + " -snapshot " + filepath.Join(dir, "s.json") + " " + c.args
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0])
		cmd.Env = append(os.Environ(), "RLBF_SERVE_ARGS="+args)
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.HasPrefix(string(out), "rlbf-serve: "+c.flag+" ") {
			t.Errorf("rlbf-serve %s: %v, output %q; want exit 2 and a message naming %s", c.args, err, out, c.flag)
		}
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("rlbf-serve %s left %d files in its directory", c.args, len(files))
		}
	}
}

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
