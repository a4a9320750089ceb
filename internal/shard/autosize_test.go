package shard

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
)

// TestAutoFlanksSpanDrains pins the structural property auto-sizing relies
// on: on a regularly draining workload the pre-pass finds drain points, and
// every surviving auto-sized window's leading flank starts exactly at a
// drain (or 0) while its trailing flank ends at a drain (or the trace end)
// — the exact-by-construction geometry. Kept cuts must still tile the trace
// and every window's replay range must cover its proper region.
func TestAutoFlanksSpanDrains(t *testing.T) {
	tr := moderateLoadTrace(2500)
	drains := analyzeDrains(tr)
	if len(drains) < 2 {
		t.Fatalf("pre-pass found %d drains on the moderate-load surrogate; the detector is broken or the trace is saturated", len(drains))
	}
	isDrain := make(map[int]bool, len(drains))
	for _, d := range drains {
		isDrain[d] = true
	}
	cuts, flanks := autoFlanks(tr, 400)
	if cuts[0] != 0 || cuts[len(cuts)-1] != tr.Len() {
		t.Fatalf("kept cuts %v do not tile [0,%d)", cuts, tr.Len())
	}
	if len(cuts)-1 < 2 {
		t.Fatalf("auto-sizing merged the moderate-load trace down to %d windows; drains should be in reach", len(cuts)-1)
	}
	for w, fl := range flanks {
		if fl.lo > cuts[w] || fl.hi < cuts[w+1] {
			t.Fatalf("window %d: flanks [%d,%d) do not cover proper region [%d,%d)",
				w, fl.lo, fl.hi, cuts[w], cuts[w+1])
		}
		if fl.lo != 0 && !isDrain[fl.lo] {
			t.Errorf("window %d: leading flank %d is not a drain point", w, fl.lo)
		}
		if fl.hi != tr.Len() && !isDrain[fl.hi] {
			t.Errorf("window %d: trailing flank %d is not a drain point", w, fl.hi)
		}
		if w > 0 && fl.lo <= cuts[w-1] {
			t.Errorf("window %d: warm-up from %d reaches past the previous kept cut %d — the cut should have merged",
				w, fl.lo, cuts[w-1])
		}
	}
}

// TestAutoOverlapDifferential complements TestShardDifferential with
// geometries it does not cover: narrow windows that keep many cuts on
// SDSC-SP2, and HPC2N seed 3, whose load-0.5 trace merges to one window, at
// lighter loads where its drains keep cuts. The derived flanks must make
// every row's stitched replay byte-identical to sequential for every
// heuristic strategy, and every row keeps at least two windows.
func TestAutoOverlapDifferential(t *testing.T) {
	rows := []struct {
		tr     *trace.Trace
		window int
	}{
		{trace.ScaleLoad(trace.SyntheticSDSCSP2(2500, 1), 0.5), 250},
		{trace.ScaleLoad(trace.SyntheticHPC2N(2500, 3), 0.3), 625},
		{trace.ScaleLoad(trace.SyntheticHPC2N(2500, 3), 0.4), 400},
	}
	for _, row := range rows {
		tr, cfg := row.tr, Config{Window: row.window, MinJobs: 1}
		for _, s := range strategies {
			if testing.Short() && s.name == "conservative" && tr.Name == "SDSC-SP2" {
				continue // the profile-based strategy dominates the runtime
			}
			seq := sequentialResult(t, tr, s.mk)
			sh := shardedResult(t, tr, s.mk, cfg)
			if bad, ok := recordsEqual(seq.Records, sh.Records); !ok {
				t.Errorf("%s/W%d/%s: %d of %d records differ between sequential and auto-sized sharded replay",
					tr.Name, row.window, s.name, bad, len(seq.Records))
				continue
			}
			if seq.Summary != sh.Summary {
				t.Errorf("%s/W%d/%s: summaries differ: sequential %+v, auto-sized %+v",
					tr.Name, row.window, s.name, seq.Summary, sh.Summary)
			}
		}
	}
}

// TestAutoOverlapSaturatedMerges documents the no-drain contract: a
// near-saturated workload has busy periods too long for drains to be in
// reach, so auto-sizing merges the unreachable cuts — degrading to fewer,
// larger windows instead of a drifting stitch — and the replay stays
// byte-identical to sequential (DESIGN.md §7).
func TestAutoOverlapSaturatedMerges(t *testing.T) {
	tr := trace.ScaleLoad(trace.SyntheticSDSCSP2(2500, 1), 0.9)
	sc := Config{Window: 625, MinJobs: 1}
	const proposed = 4 // ceil(2500 / 625)
	cuts, _ := autoFlanks(tr, sc.Window)
	if len(cuts)-1 >= proposed {
		t.Fatalf("saturated trace kept all %d proposed windows; expected merges", proposed)
	}
	mk := strategies[1].mk // EASY
	seq := sequentialResult(t, tr, mk)
	sh, err := ReplayWith(tr, sched.FCFS{}, mk, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad, ok := recordsEqual(seq.Records, sh.Records); !ok {
		t.Fatalf("%d of %d records differ on the saturated trace; merging should keep the stitch exact",
			bad, len(seq.Records))
	}
	if seq.Summary != sh.Summary {
		t.Fatalf("summaries differ: sequential %+v, auto-sized %+v", seq.Summary, sh.Summary)
	}
	t.Logf("saturated auto-sizing: %d of %d proposed windows survived, stitch exact",
		len(cuts)-1, proposed)
}
