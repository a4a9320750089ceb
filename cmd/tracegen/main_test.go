package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestRejectsNonPositiveN checks -n below 1 is a usage error on both the
// streaming and the materializing path, and that nothing is written.
func TestRejectsNonPositiveN(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "huge", "-n", "-5"},
		{"-workload", "huge", "-n", "0"},
		{"-workload", "sdsc-sp2", "-n", "0", "-priority-tiers", "3"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %d bytes of output", args, stdout.Len())
		}
	}
}

// TestHugeStreamingWrite checks the streaming path reports the jobs it
// wrote and that a huge workload on a machine narrower than one partition
// only holds jobs that fit it.
func TestHugeStreamingWrite(t *testing.T) {
	out := filepath.Join(t.TempDir(), "huge.swf")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "huge", "-n", "2000", "-nodes", "128", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if want := fmt.Sprintf("wrote 2000 jobs to %s", out); !strings.Contains(stderr.String(), want) {
		t.Fatalf("stderr %q, want %q", stderr.String(), want)
	}
	tr, err := trace.LoadSWFFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2000 || tr.Procs != 128 {
		t.Fatalf("read back %d jobs on %d procs, want 2000 on 128", tr.Len(), tr.Procs)
	}
	for _, j := range tr.Jobs {
		if j.Procs > tr.Procs {
			t.Fatalf("job %d requests %d procs > machine size %d", j.ID, j.Procs, tr.Procs)
		}
	}
}

// TestOutputDigests pins tracegen's SWF output, byte for byte, to digests
// recorded when trace.Job still held the group, executable, queue,
// partition and status columns: a built-in workload, the same workload with
// memory and priority tiers (priority rides the queue column), and the
// streaming Lublin-Huge path.
func TestOutputDigests(t *testing.T) {
	for _, c := range []struct {
		args   []string
		digest string
	}{
		{[]string{"-workload", "sdsc-sp2", "-n", "2000"},
			"ccf3943ac1bba58deaedc0952a153cfa5ce53255da088561cd1909312746682b"},
		{[]string{"-workload", "sdsc-sp2", "-n", "2000", "-mem-dist", "prop", "-priority-tiers", "3"},
			"0d4d3fb5cda84efdb9dbe1920a97a0dc9dc96721f0b926620a82cfda7dca83a3"},
		{[]string{"-workload", "huge", "-n", "20000"},
			"2b9e81a271f83d77ccf8fab12541f51ba2b1e05bca513df119aa0b043d78d87b"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", c.args, code, stderr.String())
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(stdout.Bytes())); got != c.digest {
			t.Errorf("%v: sha256 %s, want %s", c.args, got, c.digest)
		}
	}
}
