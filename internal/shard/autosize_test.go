package shard

import (
	"testing"

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
	dp := analyzeDrains(tr)
	if len(dp.drains) < 2 {
		t.Fatalf("pre-pass found %d drains on the moderate-load surrogate; the detector is broken or the trace is saturated", len(dp.drains))
	}
	isDrain := make(map[int]bool, len(dp.drains))
	for _, d := range dp.drains {
		isDrain[d] = true
	}
	sc := Config{Window: 400, MinJobs: 1} // Overlap 0 = auto
	cuts, flanks := autoFlanks(tr, sc, sc.cutIndices(tr))
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

// TestAutoOverlapDifferential is the auto-sizing analogue of
// TestShardDifferential: with Overlap 0 the derived flanks must make the
// stitched replay byte-identical to sequential for every heuristic strategy
// on both surrogate archives — no hand-tuned overlap anywhere.
func TestAutoOverlapDifferential(t *testing.T) {
	cfg := Config{Window: 625, MinJobs: 1} // Overlap 0 = auto
	traces := []*trace.Trace{
		trace.ScaleLoad(trace.SyntheticSDSCSP2(2500, 1), 0.5),
		trace.ScaleLoad(trace.SyntheticHPC2N(2500, 3), 0.5),
	}
	for _, tr := range traces {
		for _, s := range strategies {
			if testing.Short() && s.name == "conservative" && tr.Name == "SDSC-SP2" {
				continue // the profile-based strategy dominates the runtime
			}
			seq := sequentialResult(t, tr, s.mk)
			sh := shardedResult(t, tr, s.mk, cfg)
			if bad, ok := recordsEqual(seq.Records, sh.Records); !ok {
				t.Errorf("%s/%s: %d of %d records differ between sequential and auto-sized sharded replay",
					tr.Name, s.name, bad, len(seq.Records))
				continue
			}
			if seq.Summary != sh.Summary {
				t.Errorf("%s/%s: summaries differ: sequential %+v, auto-sized %+v",
					tr.Name, s.name, seq.Summary, sh.Summary)
			}
		}
	}
}

// TestAutoOverlapTimeWindows covers the wall-clock window geometry under
// auto-sizing: cuts come from WindowSeconds but flanks are still job-index
// drains, and the stitch stays byte-identical.
func TestAutoOverlapTimeWindows(t *testing.T) {
	tr := moderateLoadTrace(2500)
	mk := strategies[1].mk // EASY
	span := tr.Jobs[tr.Len()-1].Submit - tr.Jobs[0].Submit
	cfg := Config{WindowSeconds: span / 4, MinJobs: 1}
	seq := sequentialResult(t, tr, mk)
	sh := shardedResult(t, tr, mk, cfg)
	if bad, ok := recordsEqual(seq.Records, sh.Records); !ok {
		t.Fatalf("%d of %d records differ under auto-sized wall-clock windows", bad, len(seq.Records))
	}
	if seq.Summary != sh.Summary {
		t.Fatalf("summaries differ: sequential %+v, auto-sized %+v", seq.Summary, sh.Summary)
	}
}

// TestAutoOverlapSaturatedMerges documents the no-drain contract: a
// near-saturated workload has busy periods too long for drains to be in
// reach, so auto-sizing merges the unreachable cuts — degrading to fewer,
// larger windows instead of a drifting stitch — and the replay stays
// byte-identical to sequential (well inside the 10% tolerance the explicit
// Overlap override documents; see DESIGN.md §7/§11).
func TestAutoOverlapSaturatedMerges(t *testing.T) {
	tr := trace.ScaleLoad(trace.SyntheticSDSCSP2(2500, 1), 0.9)
	sc := Config{Window: 625, MinJobs: 1}
	proposed := sc.cutIndices(tr)
	cuts, _ := autoFlanks(tr, sc, proposed)
	if len(cuts) >= len(proposed) {
		t.Fatalf("saturated trace kept all %d proposed cuts; expected merges", len(proposed))
	}
	mk := strategies[1].mk // EASY
	seq := sequentialResult(t, tr, mk)
	sh := shardedResult(t, tr, mk, sc)
	if bad, ok := recordsEqual(seq.Records, sh.Records); !ok {
		t.Fatalf("%d of %d records differ on the saturated trace; merging should keep the stitch exact",
			bad, len(seq.Records))
	}
	if seq.Summary != sh.Summary {
		t.Fatalf("summaries differ: sequential %+v, auto-sized %+v", seq.Summary, sh.Summary)
	}
	t.Logf("saturated auto-sizing: %d of %d proposed windows survived, stitch exact",
		len(cuts)-1, len(proposed)-1)
}

// TestExplicitOverlapUnchanged pins that an explicit Overlap still produces
// the historical fixed symmetric flanks around every proposed cut — the
// knob remains an override and existing configurations replay exactly as
// before.
func TestExplicitOverlapUnchanged(t *testing.T) {
	tr := moderateLoadTrace(2500)
	sc := Config{Window: 625, Overlap: 512, MinJobs: 1}
	proposed := sc.cutIndices(tr)
	cuts, flanks := autoFlanks(tr, sc, proposed)
	if len(cuts) != len(proposed) {
		t.Fatalf("explicit overlap changed the cuts: %v -> %v", proposed, cuts)
	}
	for w, fl := range flanks {
		wantLo := max(cuts[w]-512, 0)
		wantHi := min(cuts[w+1]+512, tr.Len())
		if fl.lo != wantLo || fl.hi != wantHi {
			t.Fatalf("window %d: explicit overlap flanks [%d,%d), want [%d,%d)",
				w, fl.lo, fl.hi, wantLo, wantHi)
		}
	}
}
