package experiments

import (
	"io"
	"strconv"
	"strings"
	"testing"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"paper", "quick", "tiny"} {
		sc, ok := ByName(name)
		if !ok || sc.Name != name {
			t.Fatalf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown scale accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n1"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	s := tbl.String()
	for _, want := range []string{"T", "a", "bb", "333", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestWorkloadsCoverTable2(t *testing.T) {
	ws := Workloads(500, 7)
	if len(ws) != 4 {
		t.Fatalf("%d workloads, want 4", len(ws))
	}
	names := map[string]bool{}
	for _, w := range ws {
		names[w.Name] = true
		if w.Len() != 500 {
			t.Fatalf("%s has %d jobs", w.Name, w.Len())
		}
		if err := w.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"SDSC-SP2", "HPC2N", "Lublin-1", "Lublin-2"} {
		if !names[want] {
			t.Fatalf("missing workload %s", want)
		}
	}
}

func TestEstimatorForSyntheticUsesAR(t *testing.T) {
	ws := Workloads(50, 1)
	if estimatorFor(ws[0]).Name() != "RT" {
		t.Fatal("archive surrogate should use request time")
	}
	if estimatorFor(ws[2]).Name() != "AR" {
		t.Fatal("Lublin trace should use actual runtime")
	}
}

func TestFigure1Shape(t *testing.T) {
	sc := TinyScale()
	sc.TraceJobs = 400
	tbl, err := Figure1(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("Figure 1 has %d policy rows, want 4", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != 8 { // policy + 6 noise levels + RT
			t.Fatalf("Figure 1 row has %d cells: %v", len(row), row)
		}
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v < 1 {
				t.Fatalf("bad bsld cell %q", cell)
			}
		}
	}
}

func TestTable2Generated(t *testing.T) {
	sc := TinyScale()
	tbl := Table2(sc)
	if len(tbl.Rows) != 4 {
		t.Fatalf("Table 2 has %d rows", len(tbl.Rows))
	}
	// Lublin rows must be marked AR-only
	if tbl.Rows[2][len(tbl.Rows[2])-1] != "AR" {
		t.Fatalf("Lublin-1 runtime column = %q, want AR", tbl.Rows[2][len(tbl.Rows[2])-1])
	}
}

func TestConservativeCompare(t *testing.T) {
	sc := TinyScale()
	sc.TraceJobs = 200
	tbl, err := ConservativeCompare(sc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// backfilling should never be dramatically worse than no backfilling
	for _, row := range tbl.Rows {
		none, _ := strconv.ParseFloat(row[1], 64)
		easy, _ := strconv.ParseFloat(row[2], 64)
		if easy > none*1.5+1 {
			t.Fatalf("EASY (%v) much worse than no backfilling (%v) on %s", easy, none, row[0])
		}
	}
}

func TestZooCachesModels(t *testing.T) {
	sc := TinyScale()
	sc.TraceJobs = 300
	zoo := NewZoo()
	ws := Workloads(sc.TraceJobs, sc.Seed)
	a1, curve, err := zoo.Get(fcfs(), ws[0], sc, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != sc.Epochs {
		t.Fatalf("curve has %d epochs", len(curve))
	}
	a2, _, err := zoo.Get(fcfs(), ws[0], sc, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("zoo retrained an existing model")
	}
}

func TestRunManyUnknownName(t *testing.T) {
	if _, err := RunMany([]string{"bogus"}, TinyScale(), nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("registry has only %d experiments", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("names not sorted")
		}
	}
}

// End-to-end: the cheap experiments run and render via RunMany.
func TestRunManyCheapExperiments(t *testing.T) {
	sc := TinyScale()
	sc.TraceJobs = 250
	out, err := RunMany([]string{"table2", "fig1", "conservative"}, sc, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 2", "Figure 1", "conservative"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

// End-to-end at tiny scale: Table 4 trains models and renders.
func TestTable4Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("RL experiment skipped in -short mode")
	}
	sc := TinyScale()
	sc.TraceJobs = 300
	sc.Eval = evalCfg(2, 100)
	zoo := NewZoo()
	tbl, err := Table4(sc, zoo, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("Table 4 has %d rows", len(tbl.Rows))
	}
	// Lublin rows report "-" for the request-time EASY columns
	for _, row := range tbl.Rows[2:] {
		if row[1] != "-" || row[4] != "-" {
			t.Fatalf("Lublin row should have '-' EASY cells: %v", row)
		}
	}
}

// End-to-end at tiny scale: the scenario grid trains its agent, and every
// row fills exactly the columns its header names.
func TestScenarioTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("RL experiment skipped in -short mode")
	}
	sc := TinyScale()
	sc.TraceJobs = 300
	sc.Eval = evalCfg(2, 100)
	tbl, err := ScenarioCompare(sc, NewZoo(), nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("scenario grid has %d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("row %v has %d cells, header %v has %d", row, len(row), tbl.Header, len(tbl.Header))
		}
		for c, cell := range row[1 : len(row)-1] { // the heuristic columns
			if _, err := strconv.ParseFloat(cell, 64); err != nil {
				t.Fatalf("%s: %s cell %q is not a number", row[0], tbl.Header[c+1], cell)
			}
		}
	}
}

func TestLoadSweep(t *testing.T) {
	sc := TinyScale()
	sc.TraceJobs = 300
	tbl, err := LoadSweep(sc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("load sweep has %d rows", len(tbl.Rows))
	}
	// higher load must not reduce the no-backfilling bsld dramatically:
	// compare the f=0.5 and f=2.0 rows for the "none" column.
	lo, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	hi, _ := strconv.ParseFloat(tbl.Rows[4][1], 64)
	if hi < lo {
		t.Fatalf("no-backfill bsld fell as load doubled: %v -> %v", lo, hi)
	}
}
