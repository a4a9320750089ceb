package main

import (
	"bytes"
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

// TestShardWindowFlag checks that a sharded replay on a geometry that keeps
// at least two windows writes the sequential run's CSV and summary line,
// and that the removed sharding flags are unknown.
func TestShardWindowFlag(t *testing.T) {
	dir := t.TempDir()
	seqCSV, shCSV := filepath.Join(dir, "seq.csv"), filepath.Join(dir, "sharded.csv")
	code, seqOut := runSim(t, "-trace sdsc-sp2 -jobs 5000 -csv "+seqCSV)
	if code != 0 {
		t.Fatalf("sequential run: exit %d, output %q", code, seqOut)
	}
	code, shOut := runSim(t, "-trace sdsc-sp2 -jobs 5000 -shard-window 1250 -csv "+shCSV)
	if code != 0 {
		t.Fatalf("sharded run: exit %d, output %q", code, shOut)
	}
	var windows, every int
	if i := strings.Index(shOut, "sharded replay: "); i < 0 {
		t.Fatalf("sharded run printed no status line: %q", shOut)
	} else if _, err := fmt.Sscanf(shOut[i:], "sharded replay: %d windows cut every %d jobs", &windows, &every); err != nil || windows < 2 {
		t.Fatalf("sharded run kept %d windows (%v); the geometry tests nothing: %q", windows, err, shOut)
	}
	if seqLine, shLine := strings.Split(seqOut, "\n")[1], strings.Split(shOut, "\n")[1]; seqLine != shLine {
		t.Errorf("summary lines differ:\nsequential %s\nsharded    %s", seqLine, shLine)
	}
	a, err := os.ReadFile(seqCSV)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(shCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("sharded CSV differs from the sequential one")
	}

	for _, flag := range []string{"-shard-seconds 100", "-shard-overlap 64", "-shard-workers 2"} {
		code, out := runSim(t, "-jobs 10 "+flag)
		if code != 2 || !strings.Contains(out, "flag provided but not defined") {
			t.Errorf("rlbf-sim %s: exit %d, output %q; want exit 2 and an unknown-flag error", flag, code, out)
		}
	}
}
