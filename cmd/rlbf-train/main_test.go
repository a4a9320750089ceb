package main

import (
	"crypto/md5"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestMain lets a test run the command itself: with RLBF_TRAIN_ARGS set, the
// test binary behaves as rlbf-train with those (space-separated) arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("RLBF_TRAIN_ARGS"); ok {
		os.Args = append([]string{"rlbf-train"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTinyModelPinned trains `rlbf-train -scale tiny -epochs 1` at one worker
// (the PPO update's sums depend on the worker count) and pins the model file
// by its md5, so that a change to the file's format, or to what the learner
// computes, is a deliberate one. The file then loads, and its agent
// schedules evaluation sequences.
func TestTinyModelPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1", "RLBF_TRAIN_ARGS=-scale tiny -epochs 1 -o "+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("rlbf-train -scale tiny -epochs 1: %v\n%s", err, out)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", md5.Sum(file)), "fa57ae3078eb15a71da7d2bad0cf82de"; got != want {
		t.Fatalf("model file md5 %s, want %s", got, want)
	}

	m, err := core.LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Agent()
	if err != nil {
		t.Fatal(err)
	}
	mean, per, err := core.EvaluateAgent(a, trace.SyntheticSDSCSP2(700, 1), sched.FCFS{},
		core.EvalConfig{Sequences: 2, SeqLen: 128, Seed: 2023})
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 2 || !(mean >= 1) {
		t.Fatalf("mean bsld %v over %d sequences, want at least 1 over 2", mean, len(per))
	}
}
