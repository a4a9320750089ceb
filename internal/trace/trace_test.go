package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestJobValidate(t *testing.T) {
	good := &Job{ID: 1, Submit: 0, Runtime: 10, Request: 20, Procs: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := []*Job{
		{ID: 2, Runtime: 10, Request: 20, Procs: 0},
		{ID: 3, Runtime: -1, Request: 20, Procs: 1},
		{ID: 4, Runtime: 10, Request: 0, Procs: 1},
		{ID: 5, Submit: -1, Runtime: 10, Request: 20, Procs: 1},
	}
	for _, j := range cases {
		if err := j.Validate(); err == nil {
			t.Fatalf("invalid job %d accepted", j.ID)
		}
	}
}

func TestTraceValidate(t *testing.T) {
	tr := &Trace{Name: "x", Procs: 8, Jobs: []*Job{
		{ID: 1, Submit: 0, Runtime: 5, Request: 5, Procs: 4},
		{ID: 2, Submit: 10, Runtime: 5, Request: 5, Procs: 8},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	tr.Jobs[1].Procs = 9
	if err := tr.Validate(); err == nil {
		t.Fatal("oversized job accepted")
	}
	tr.Jobs[1].Procs = 8
	tr.Jobs[1].Submit = -5
	if err := tr.Validate(); err == nil {
		t.Fatal("out-of-order submits accepted")
	}
	tr.Jobs[1].Submit = 10
	for _, m := range []Trace{{Procs: 0}, {Procs: 8, Mem: -1}} {
		m.Jobs = tr.Jobs
		if err := m.Validate(); err == nil {
			t.Fatalf("machine %d procs/%d mem accepted", m.Procs, m.Mem)
		}
	}
}

// Validate refuses a trace that holds one job ID twice, whether the IDs
// rise (the common case, checked without a set) or not.
func TestTraceValidateRejectsRepeatedIDs(t *testing.T) {
	mk := func(ids ...int) *Trace {
		tr := &Trace{Name: "ids", Procs: 8}
		for i, id := range ids {
			tr.Jobs = append(tr.Jobs, &Job{ID: id, Submit: int64(i), Runtime: 5, Request: 5, Procs: 1})
		}
		return tr
	}
	for _, ids := range [][]int{{1, 2, 3}, {3, 1, 2}, {0, 7, 5, 9}} {
		if err := mk(ids...).Validate(); err != nil {
			t.Errorf("IDs %v rejected: %v", ids, err)
		}
	}
	for _, ids := range [][]int{{1, 1}, {1, 2, 2}, {3, 1, 3}, {5, 2, 4, 2}} {
		if err := mk(ids...).Validate(); err == nil {
			t.Errorf("IDs %v accepted", ids)
		}
	}
}

// TestCloneIndependence overwrites every job of a Clone and a Slice and
// checks the source trace is unchanged, field by field.
func TestCloneIndependence(t *testing.T) {
	tr := SyntheticSDSCSP2(50, 3)
	want := make([]Job, tr.Len())
	for i, j := range tr.Jobs {
		want[i] = *j
	}
	for _, c := range []*Trace{tr.Clone(), Slice(tr, 10, 30)} {
		for _, j := range c.Jobs {
			*j = Job{ID: -1, Runtime: -1, Procs: -1, User: -1, Priority: -1}
		}
	}
	for i, j := range tr.Jobs {
		if *j != want[i] {
			t.Fatalf("job %d of the source changed to %+v, want %+v", i, *j, want[i])
		}
	}
}

func TestHead(t *testing.T) {
	tr := SyntheticSDSCSP2(100, 1)
	h := tr.Head(10)
	if h.Len() != 10 {
		t.Fatalf("Head(10) has %d jobs", h.Len())
	}
	if h2 := tr.Head(1000); h2.Len() != 100 {
		t.Fatalf("Head(1000) has %d jobs", h2.Len())
	}
}

const sampleSWF = `; Trace: test
; MaxProcs: 64
; UnixStartTime: 0
1 100 5 360 4 -1 -1 4 600 -1 1 7 3 2 1 1 -1 -1
2 160 0 10 1 -1 -1 1 100 -1 1 8 3 2 1 1 -1 -1
3 200 0 -1 2 -1 -1 2 100 -1 0 8 3 2 1 1 -1 -1
4 300 0 50 -1 -1 -1 8 -1 -1 1 9 3 2 1 1 -1 -1
`

func TestParseSWF(t *testing.T) {
	tr, err := ParseSWF(strings.NewReader(sampleSWF), "test")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Procs != 64 {
		t.Fatalf("MaxProcs = %d, want 64", tr.Procs)
	}
	// job 3 has runtime -1 and must be filtered
	if len(tr.Jobs) != 3 {
		t.Fatalf("parsed %d jobs, want 3", len(tr.Jobs))
	}
	j := tr.Jobs[0]
	if j.ID != 1 || j.Submit != 0 || j.Runtime != 360 || j.Request != 600 || j.Procs != 4 {
		t.Fatalf("job 1 parsed as %+v", j)
	}
	// submit rebased: job 2 at 160-100=60
	if tr.Jobs[1].Submit != 60 {
		t.Fatalf("job 2 submit = %d, want 60", tr.Jobs[1].Submit)
	}
	// job 4: request <= 0 falls back to runtime
	j4 := tr.Jobs[2]
	if j4.Request != 50 || j4.Procs != 8 {
		t.Fatalf("job 4 parsed as %+v", j4)
	}
}

func TestParseSWFBadLine(t *testing.T) {
	if _, err := ParseSWF(strings.NewReader("1 2 3\n"), "bad"); err == nil {
		t.Fatal("short line accepted")
	}
	if _, err := ParseSWF(strings.NewReader("1 x 3 4 5 6 7 8 9 10\n"), "bad"); err == nil {
		t.Fatal("non-numeric field accepted")
	}
}

func TestParseSWFNoHeaderDerivesProcs(t *testing.T) {
	tr, err := ParseSWF(strings.NewReader("1 0 0 10 4 -1 -1 16 20 -1 1 1 1 1 1 1 -1 -1\n"), "x")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Procs != 16 {
		t.Fatalf("derived procs = %d, want 16", tr.Procs)
	}
}

// TestSWFRoundTrip writes random traces and parses them back: every field
// Job keeps (the seven scheduling fields and User) survives.
func TestSWFRoundTrip(t *testing.T) {
	rng := stats.NewRNG(5)
	f := func(n uint8) bool {
		m := int(n%40) + 1
		orig := &Trace{Name: "rt", Procs: 256}
		var submit int64
		for i := 0; i < m; i++ {
			submit += rng.Int63n(1000)
			run := rng.Int63n(5000) + 1
			procs := rng.Intn(256) + 1
			orig.Jobs = append(orig.Jobs, &Job{
				ID: i + 1, Submit: submit, Runtime: run,
				Request: run + rng.Int63n(5000), Procs: procs,
				Mem: procs * rng.Intn(100), Priority: int32(rng.Intn(4)),
				User: int32(rng.Intn(50)),
			})
		}
		rebase(orig.Jobs)
		var sb strings.Builder
		if err := WriteSWF(&sb, orig); err != nil {
			return false
		}
		got, err := ParseSWF(strings.NewReader(sb.String()), "rt")
		if err != nil {
			return false
		}
		if got.Procs != orig.Procs || len(got.Jobs) != len(orig.Jobs) {
			return false
		}
		for i, j := range got.Jobs {
			if *j != *orig.Jobs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticSDSCSP2MatchesTable2(t *testing.T) {
	tr := SyntheticSDSCSP2(10000, 42)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(tr)
	checkWithin(t, "size", float64(s.Procs), 128, 0)
	checkWithin(t, "it", s.MeanInterarrival, 1055, 0.08)
	checkWithin(t, "rt", s.MeanRequest, 6687, 0.08)
	checkWithin(t, "nt", s.MeanProcs, 11, 0.30)
	if s.MeanOverestimate < 1.3 {
		t.Fatalf("mean overestimation factor %.2f too small to be realistic", s.MeanOverestimate)
	}
}

func TestSyntheticHPC2NMatchesTable2(t *testing.T) {
	tr := SyntheticHPC2N(10000, 42)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(tr)
	checkWithin(t, "size", float64(s.Procs), 240, 0)
	checkWithin(t, "it", s.MeanInterarrival, 538, 0.08)
	checkWithin(t, "rt", s.MeanRequest, 17024, 0.08)
	checkWithin(t, "nt", s.MeanProcs, 6, 0.35)
}

func checkWithin(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if tol == 0 {
		if got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
		return
	}
	if math.Abs(got-want) > tol*want {
		t.Fatalf("%s = %v, want %v (±%.0f%%)", name, got, want, tol*100)
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a := SyntheticSDSCSP2(500, 7)
	b := SyntheticSDSCSP2(500, 7)
	for i := range a.Jobs {
		if *a.Jobs[i] != *b.Jobs[i] {
			t.Fatalf("job %d differs between identical seeds", i)
		}
	}
	c := SyntheticSDSCSP2(500, 8)
	same := 0
	for i := range a.Jobs {
		if a.Jobs[i].Runtime == c.Jobs[i].Runtime {
			same++
		}
	}
	if same == len(a.Jobs) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestSyntheticRequestGEQRuntime(t *testing.T) {
	tr := SyntheticHPC2N(5000, 3)
	for _, j := range tr.Jobs {
		if j.Request < j.Runtime {
			t.Fatalf("job %d: request %d < runtime %d", j.ID, j.Request, j.Runtime)
		}
	}
}

func TestSplit(t *testing.T) {
	tr := SyntheticSDSCSP2(100, 1)
	train, test := Split(tr, 0.8)
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	if test.Jobs[0].Submit != 0 {
		t.Fatal("test half not rebased")
	}
}

// TestSliceBounds checks out-of-range arguments clamp to a shorter or empty
// trace instead of panicking.
func TestSliceBounds(t *testing.T) {
	tr := SyntheticSDSCSP2(5, 1)
	for _, c := range []struct{ start, n, want int }{
		{-5, 3, 3}, {3, 10, 2}, {9, 2, 0}, {2, -1, 0}, {5, 1, 0},
	} {
		s := Slice(tr, c.start, c.n)
		if s.Len() != c.want {
			t.Fatalf("Slice(t, %d, %d) has %d jobs, want %d", c.start, c.n, s.Len(), c.want)
		}
		if s.Name != tr.Name || s.Procs != tr.Procs {
			t.Fatalf("Slice(t, %d, %d) lost the trace header: %q procs %d", c.start, c.n, s.Name, s.Procs)
		}
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(&Trace{Name: "empty", Procs: 4})
	if s.Jobs != 0 || s.MeanProcs != 0 {
		t.Fatalf("unexpected stats for empty trace: %+v", s)
	}
	_ = s.String()
}

// TestParseSWFNumericColumns replaces one column of a valid record and
// checks the outcome: non-finite values, values outside int64 and identity
// columns outside int32 are rejected with the line number, whatever the
// platform's float conversion would do; fractions truncate and -1 means
// unknown, as always.
func TestParseSWFNumericColumns(t *testing.T) {
	const base = "1 100 5 360 4 -1 -1 4 600 -1 1 7 3 2 1 1 -1 -1"
	cases := []struct {
		name  string
		field int // 1-based SWF column
		val   string
		err   string // non-empty: ParseSWF must fail, mentioning this
		check func(*Job) bool
	}{
		{name: "runtime 1e30", field: 4, val: "1e30", err: "int64 range"},
		{name: "runtime NaN", field: 4, val: "NaN", err: "int64 range"},
		{name: "runtime 2^63", field: 4, val: "9223372036854775808", err: "int64 range"},
		{name: "runtime -Inf", field: 4, val: "-Inf", err: "int64 range"},
		{name: "request Inf", field: 9, val: "Inf", err: "int64 range"},
		{name: "wait NaN", field: 3, val: "nan", err: "int64 range"},
		{name: "think time 1e300", field: 18, val: "1e300", err: "int64 range"},
		{name: "user 3000000000", field: 12, val: "3000000000", err: "int32 range"},
		{name: "group below int32", field: 13, val: "-2147483649", err: "int32 range"},
		{name: "queue 2^31", field: 15, val: "2147483648", err: "int32 range"},
		{name: "status 1e10", field: 11, val: "1e10", err: "int32 range"},
		{name: "user at int32 max", field: 12, val: "2147483647",
			check: func(j *Job) bool { return j.User == 2147483647 }},
		{name: "partition at int32 min", field: 16, val: "-2147483648",
			check: func(j *Job) bool { return j.Runtime == 360 && j.User == 7 && j.Priority == 1 }},
		{name: "user below int32", field: 12, val: "-2147483649", err: "int32 range"},
		{name: "queue below int32", field: 15, val: "-2147483649", err: "int32 range"},
		{name: "queue at int32 max", field: 15, val: "2147483647",
			check: func(j *Job) bool { return j.Priority == math.MaxInt32 }},
		{name: "wait at int64 min", field: 3, val: "-9223372036854775808",
			check: func(j *Job) bool { return j.Runtime == 360 }},
		{name: "runtime 100.9", field: 4, val: "100.9",
			check: func(j *Job) bool { return j.Runtime == 100 && j.Request == 600 }},
		{name: "procs 4.5", field: 8, val: "4.5",
			check: func(j *Job) bool { return j.Procs == 4 }},
		{name: "request unknown", field: 9, val: "-1",
			check: func(j *Job) bool { return j.Request == 360 }},
		{name: "queue 3 is priority 3", field: 15, val: "3",
			check: func(j *Job) bool { return j.Priority == 3 }},
		{name: "runtime unknown drops the record", field: 4, val: "-1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fields := strings.Fields(base)
			fields[c.field-1] = c.val
			in := "; MaxProcs: 64\n" + strings.Join(fields, " ") + "\n"
			tr, err := ParseSWF(strings.NewReader(in), "num")
			if c.err != "" {
				if err == nil {
					t.Fatalf("accepted: %+v", tr.Jobs)
				}
				if msg := err.Error(); !strings.Contains(msg, "line 2") || !strings.Contains(msg, c.err) {
					t.Fatalf("error %q, want line 2 and %q", msg, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.check == nil {
				if tr.Len() != 0 {
					t.Fatalf("record kept: %+v", tr.Jobs[0])
				}
				return
			}
			if tr.Len() != 1 || !c.check(tr.Jobs[0]) {
				t.Fatalf("parsed %d jobs, first %+v", tr.Len(), tr.Jobs)
			}
		})
	}
}

// TestWriteJobPriorityInt32Max checks the widest priority tier is written
// to the queue column in full and parses back unchanged.
func TestWriteJobPriorityInt32Max(t *testing.T) {
	var sb strings.Builder
	sw, err := NewSWFWriter(&sb, "wide", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteJob(&Job{ID: 1, Runtime: 10, Request: 10, Procs: 1, Priority: math.MaxInt32}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	fields := strings.Fields(lines[len(lines)-1])
	if got := fields[swfQueue]; got != "2147483647" {
		t.Fatalf("queue column %q, want 2147483647", got)
	}
	tr, err := ParseSWF(strings.NewReader(sb.String()), "wide")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.Jobs[0].Priority != math.MaxInt32 {
		t.Fatalf("parsed back %+v, want priority %d", tr.Jobs, math.MaxInt32)
	}
}
