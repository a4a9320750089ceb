package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsNonPositiveN checks -n below 1 is a usage error naming the
// flag, on the streaming and the enriching path alike, and that nothing is
// printed to stdout.
func TestRejectsNonPositiveN(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0", "sdsc-sp2"},
		{"-n", "-5", "huge"},
		{"-n", "0", "-priority-tiers", "3", "hpc2n"},
		{"-n", "0", "no-such-file.swf"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-n ") {
			t.Errorf("%v: stderr %q does not name -n", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
}

// TestSummaryJobs checks -n caps a built-in workload on the streaming and
// the enriching path, and that an unknown name fails with exit 1.
func TestSummaryJobs(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "300", "sdsc-sp2"},
		{"-n", "300", "-priority-tiers", "3", "sdsc-sp2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "jobs=300") {
			t.Errorf("%v: summary %q, want jobs=300", args, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"no-such-file.swf"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown workload: exit %d, want 1", code)
	}
}
