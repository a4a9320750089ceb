package shard

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/backfill"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestSWFArchiveShardedReplay is the opt-in real-archive path (ROADMAP:
// "Vendored SWF ingestion"): point RLBF_SWF_DIR at a directory holding
// Parallel Workloads Archive files (e.g. SDSC-SP2-1998-4.2-cln.swf,
// HPC2N-2002-2.2-cln.swf) and every *.swf found there is replayed through
// the sharded pipeline and compared to the sequential replay. Drain-aware
// flanks make the stitch exact by construction, so the assertion is
// byte-identity of records and summary; the kept window count is logged,
// since an archive that rarely drains merges toward one window.
func TestSWFArchiveShardedReplay(t *testing.T) {
	dir := os.Getenv("RLBF_SWF_DIR")
	if dir == "" {
		t.Skip("RLBF_SWF_DIR not set; skipping real-archive sharded replay")
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.swf"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("RLBF_SWF_DIR=%s contains no *.swf files", dir)
	}
	const jobs = 10000 // the paper's per-trace horizon (§4.1.2)
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			tr, err := trace.LoadSWFFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tr = tr.Head(jobs)
			mk := func() backfill.Backfiller { return backfill.NewEASY(backfill.RequestTime{}) }
			seq, err := ReplayWith(tr, sched.FCFS{}, mk, Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Window: 2500, MinJobs: 1}
			sh, err := ReplayWith(tr, sched.FCFS{}, mk, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, flanks := autoFlanks(tr, cfg.Window)
			bad, exact := recordsEqual(seq.Records, sh.Records)
			t.Logf("%s: %d jobs, %d procs, %d kept windows: %d/%d records differ, seq bsld %.3f vs sharded %.3f",
				tr.Name, tr.Len(), tr.Procs, len(flanks), bad, len(seq.Records),
				seq.Summary.MeanBSLD, sh.Summary.MeanBSLD)
			if !exact || seq.Summary != sh.Summary {
				t.Fatalf("sharded replay of %s differs from sequential", tr.Name)
			}
		})
	}
}
