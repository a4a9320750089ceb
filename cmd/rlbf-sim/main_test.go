package main

import (
	"errors"
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
