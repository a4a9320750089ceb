package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with RLBF_EVAL_ARGS set, the
// test binary behaves as rlbf-eval with those (space-separated) arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("RLBF_EVAL_ARGS"); ok {
		os.Args = append([]string{"rlbf-eval"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runEval runs the command with args in a child process and returns its
// exit status and combined output.
func runEval(t *testing.T, args string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "RLBF_EVAL_ARGS="+args)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("rlbf-eval %s: %v", args, err)
	return 0, ""
}

// TestSizeFlags checks that sizes with nothing to evaluate are usage errors,
// reported before any work, and that a small valid protocol runs.
func TestSizeFlags(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-seqs -1", "-seqs -1"},
		{"-seqs 0", "-seqs 0"},
		{"-seqlen 0", "-seqlen 0"},
		{"-jobs 0", "-jobs 0"},
		{"-jobs -5", "-jobs -5"},
	} {
		code, out := runEval(t, c.args)
		if code != 2 || !strings.Contains(out, c.want) || strings.Contains(out, "mean bsld") {
			t.Errorf("rlbf-eval %s: exit %d, output %q; want exit 2 and a usage message", c.args, code, out)
		}
	}
	code, out := runEval(t, "-jobs 300 -seqs 2 -seqlen 50")
	if code != 0 || !strings.Contains(out, "no-backfill") {
		t.Errorf("rlbf-eval -jobs 300 -seqs 2 -seqlen 50: exit %d, output %q", code, out)
	}
}

// TestRemovedShardFlags checks the sharding flags are gone: evaluation
// sequences always replay sequentially.
func TestRemovedShardFlags(t *testing.T) {
	for _, flag := range []string{"-shard-window 64", "-shard-seconds 100", "-shard-overlap 64"} {
		code, out := runEval(t, "-seqs 1 "+flag)
		if code != 2 || !strings.Contains(out, "flag provided but not defined") {
			t.Errorf("rlbf-eval %s: exit %d, output %q; want exit 2 and an unknown-flag error", flag, code, out)
		}
	}
}
