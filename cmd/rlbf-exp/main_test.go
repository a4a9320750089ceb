package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with RLBF_EXP_ARGS set, the
// test binary behaves as rlbf-exp with those (space-separated) arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("RLBF_EXP_ARGS"); ok {
		os.Args = append([]string{"rlbf-exp"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRemovedShardFlags checks the sharding flags are gone: experiment
// cells and evaluation sequences always replay sequentially.
func TestRemovedShardFlags(t *testing.T) {
	for _, flag := range []string{"-shard-window 64", "-shard-seconds 100", "-shard-overlap 64", "-shard-min-jobs 1"} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "RLBF_EXP_ARGS=-list "+flag)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined") {
			t.Errorf("rlbf-exp %s: %v, output %q; want exit 2 and an unknown-flag error", flag, err, out)
		}
	}
}
