package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with RLBF_SIM_ARGS set, the
// test binary behaves as rlbf-sim with those (space-separated) arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("RLBF_SIM_ARGS"); ok {
		os.Args = append([]string{"rlbf-sim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSim runs the command with args in a child process and returns its exit
// status and combined output.
func runSim(t *testing.T, args string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "RLBF_SIM_ARGS="+args)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("rlbf-sim %s: %v", args, err)
	return 0, ""
}

// TestJobsFlag checks -jobs below 1 is a usage error for a built-in workload
// and means "the whole file" for an SWF path.
func TestJobsFlag(t *testing.T) {
	for _, args := range []string{"-trace sdsc-sp2 -jobs 0", "-trace lublin-huge -jobs -5"} {
		code, out := runSim(t, args)
		if code != 2 || !strings.Contains(out, "at least 1 job") {
			t.Errorf("rlbf-sim %s: exit %d, output %q; want exit 2 and a usage message", args, code, out)
		}
	}
	if code, out := runSim(t, "-trace sdsc-sp2 -jobs 3"); code != 0 || !strings.Contains(out, "jobs=3 ") {
		t.Errorf("rlbf-sim -jobs 3: exit %d, output %q", code, out)
	}
	swf := filepath.Join(t.TempDir(), "small.swf")
	rows := "; MaxProcs: 8\n1 0 -1 10 2 -1 -1 2 20 -1 1 1 1 1 1 1 -1 -1\n2 5 -1 10 4 -1 -1 4 20 -1 1 1 1 1 1 1 -1 -1\n"
	if err := os.WriteFile(swf, []byte(rows), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := runSim(t, "-trace "+swf+" -jobs 0"); code != 0 || !strings.Contains(out, "jobs=2 ") {
		t.Errorf("rlbf-sim -trace %s -jobs 0: exit %d, output %q; want the whole file (2 jobs)", swf, code, out)
	}
}

// TestOutputPinned pins what rlbf-sim prints and writes on three ~2K-job
// rows: the header, summary, timeline and util lines, and the sha256 of the
// per-job CSV. The summary is summed and the CSV written in trace order, so
// a change of record order shows here even when every schedule holds.
func TestOutputPinned(t *testing.T) {
	rows := []struct {
		args   string
		lines  []string
		csvSHA string
	}{
		{"-trace sdsc-sp2 -jobs 2000 -backfill easy", []string{
			"SDSC-SP2   jobs=2000   size=128  it=1055    rt=6686    ar=4999    nt=11.5  over=1.71 | policy FCFS | backfill EASY-RT",
			"jobs=2000 bsld=6.42 (median 1.00, max 767.93) wait=3500s util=35.6%",
			"events=3808 max-queue=50 mean-util=35.6%",
			"util | -+= ..%--%@- .   +*%.#. %= +%.%.  %=*--.@ #%#=+@:++@.  =-@#*-+# :**#-+:|",
		}, "8c9013e2190dabba8bef359a850adba320a17855bbaad2b6ae250037e87d9fc9"},
		{"-trace hpc2n -jobs 2000 -backfill conservative -policy WFP3", []string{
			"HPC2N      jobs=2000   size=240  it=538     rt=17022   ar=9413    nt=7.0   over=2.82 | policy WFP3 | backfill CONS-RT",
			"jobs=2000 bsld=5.98 (median 1.00, max 7552.92) wait=1758s util=24.1%",
			"events=3827 max-queue=25 mean-util=24.1%",
			"util | ..:=:::. =-%....::..:@@%:-+-*:. -#.::#+*-##+.    .# -%- . .= .%:-* .:-*|",
		}, "88f790015694fc573feef5d0799f9e561c58e0518bb79131dc1be5cb030d00c8"},
		{"-trace sdsc-sp2 -jobs 2000 -starvation-bound 2", []string{
			"SDSC-SP2   jobs=2000   size=128  it=1055    rt=6686    ar=4999    nt=11.5  over=1.71 | policy FCFS | backfill EASY-RT",
			"jobs=2000 bsld=30.36 (median 1.00, max 4464.79) wait=16776s util=31.5%",
			"events=5803 max-queue=87 mean-util=31.0%",
			"util | = : *+:: %@- .:+   = #...@.=:@=% .%=.-@.::+..:.   @==.@::  @%%%#=     *|",
		}, "4c60639aca7ff1765812175c5495de990dc8f764125e55afd73016d138f8ca84"},
	}
	for _, row := range rows {
		csv := filepath.Join(t.TempDir(), "jobs.csv")
		code, out := runSim(t, row.args+" -csv "+csv)
		if code != 0 {
			t.Fatalf("rlbf-sim %s: exit %d, output %q", row.args, code, out)
		}
		lines := strings.Split(out, "\n")
		if len(lines) < len(row.lines) {
			t.Fatalf("rlbf-sim %s printed %d lines, want at least %d: %q", row.args, len(lines), len(row.lines), out)
		}
		for i, want := range row.lines {
			if lines[i] != want {
				t.Errorf("rlbf-sim %s: line %d\n got %s\nwant %s", row.args, i, lines[i], want)
			}
		}
		b, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != row.csvSHA {
			t.Errorf("rlbf-sim %s: CSV sha256 %s, want %s", row.args, got, row.csvSHA)
		}
	}
}

// TestRemovedShardFlags checks the sharding flags are gone: rlbf-sim always
// replays sequentially.
func TestRemovedShardFlags(t *testing.T) {
	for _, flag := range []string{"-shard-window 1250", "-shard-seconds 100", "-shard-overlap 64", "-shard-workers 2"} {
		code, out := runSim(t, "-jobs 10 "+flag)
		if code != 2 || !strings.Contains(out, "flag provided but not defined") {
			t.Errorf("rlbf-sim %s: exit %d, output %q; want exit 2 and an unknown-flag error", flag, code, out)
		}
	}
}

// TestRejectsOutOfRangeFlags checks a value no replay can honour is a usage
// error that names its flag, before any work: nothing is replayed and no
// CSV is written.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, c := range []struct{ args, flag string }{
		{"-noise -0.5", "-noise"},
		{"-noise NaN", "-noise"},
		{"-noise +Inf", "-noise"},
		{"-starvation-bound -1", "-starvation-bound"},
		{"-starvation-bound NaN", "-starvation-bound"},
		{"-starvation-bound -Inf", "-starvation-bound"},
		{"-starvation-bound +Inf", "-starvation-bound"},
		{"-priority-tiers -3", "-priority-tiers"},
		{"-mem-per-proc -5 -mem-dist prop", "-mem-per-proc"},
	} {
		csv := filepath.Join(t.TempDir(), "jobs.csv")
		code, out := runSim(t, "-jobs 10 -csv "+csv+" "+c.args)
		if code != 2 || !strings.HasPrefix(out, "rlbf-sim: "+c.flag+" ") || strings.Contains(out, "jobs=10") {
			t.Errorf("rlbf-sim %s: exit %d, output %q; want exit 2 and a usage message naming %s", c.args, code, out, c.flag)
		}
		if _, err := os.Stat(csv); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("rlbf-sim %s wrote %s (%v)", c.args, csv, err)
		}
	}
	if code, out := runSim(t, "-jobs 10 -noise 0.2 -starvation-bound 2 -priority-tiers 1 -mem-per-proc 0"); code != 0 {
		t.Errorf("in-range flags: exit %d, output %q", code, out)
	}
}
