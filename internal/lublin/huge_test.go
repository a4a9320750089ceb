package lublin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestLublinStreamMatchesGenerate pins that the streaming generator yields
// exactly the jobs Generate materializes for both presets.
func TestLublinStreamMatchesGenerate(t *testing.T) {
	for _, p := range []Params{Lublin1(), Lublin2()} {
		want := p.Generate(1500, 11)
		var got []*trace.Job
		if err := p.Stream(1500, 11, func(j *trace.Job) error {
			got = append(got, j)
			return nil
		}); err != nil {
			t.Fatalf("%s: stream error: %v", p.Name, err)
		}
		if len(got) != want.Len() {
			t.Fatalf("%s: stream yielded %d jobs, generate %d", p.Name, len(got), want.Len())
		}
		for i, j := range got {
			if *j != *want.Jobs[i] {
				t.Fatalf("%s: job %d differs: stream %+v, generate %+v", p.Name, i, *j, *want.Jobs[i])
			}
		}
	}
}

// TestHugeStreamMatchesGenerate pins the composition's two entry points
// against each other.
func TestHugeStreamMatchesGenerate(t *testing.T) {
	h := Huge(1024, 4, 0.8)
	want := h.Generate(5000, 2)
	i := 0
	if err := h.Stream(5000, 2, func(j *trace.Job) error {
		if *j != *want.Jobs[i] {
			t.Fatalf("job %d differs: stream %+v, generate %+v", i, *j, *want.Jobs[i])
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != want.Len() {
		t.Fatalf("stream yielded %d jobs, generate %d", i, want.Len())
	}
}

// TestHugeInvariants checks the merged composition obeys the Trace
// invariants and the partition geometry: submit-sorted starting at 0,
// IDs 1..n in order, job widths within one partition, users drawn from
// disjoint per-partition populations.
func TestHugeInvariants(t *testing.T) {
	h := Huge(0, 0, 0) // defaults: 4096 nodes, 16 streams, load 0.8
	if h.Nodes != 4096 || h.Streams != 16 || h.Load != 0.8 {
		t.Fatalf("defaults: %+v", h)
	}
	tr := h.Generate(20000, 1)
	if tr.Name != "Lublin-Huge" || tr.Procs != 4096 {
		t.Fatalf("trace header: name %q procs %d", tr.Name, tr.Procs)
	}
	if tr.Jobs[0].Submit != 0 {
		t.Fatalf("first submit %d, want 0", tr.Jobs[0].Submit)
	}
	maxUser := h.Streams * h.Base.Users
	var prev int64
	for i, j := range tr.Jobs {
		if j.ID != i+1 {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
		if j.Submit < prev {
			t.Fatalf("job %d submit %d < previous %d (merge out of order)", i, j.Submit, prev)
		}
		prev = j.Submit
		if j.Procs < 1 || j.Procs > h.Base.Procs {
			t.Fatalf("job %d width %d outside partition [1,%d]", i, j.Procs, h.Base.Procs)
		}
		if j.Runtime < 1 || j.Runtime > h.Base.MaxRuntime {
			t.Fatalf("job %d runtime %d outside [1,%d]", i, j.Runtime, h.Base.MaxRuntime)
		}
		if j.Request != j.Runtime {
			t.Fatalf("job %d request %d != runtime %d (synthetic traces carry no estimate)", i, j.Request, j.Runtime)
		}
		if j.User < 1 || j.User > maxUser {
			t.Fatalf("job %d user %d outside [1,%d]", i, j.User, maxUser)
		}
	}
}

// TestHugeLoadCalibration checks the single-pass calibration steers the
// offered load — sum(runtime*procs) over span*nodes — to the target within
// the statistical tolerance the pre-sample admits.
func TestHugeLoadCalibration(t *testing.T) {
	h := Huge(0, 0, 0)
	tr := h.Generate(60000, 1)
	var work float64
	for _, j := range tr.Jobs {
		work += float64(j.Runtime) * float64(j.Procs)
	}
	span := float64(tr.Jobs[tr.Len()-1].Submit - tr.Jobs[0].Submit)
	load := work / (span * float64(h.Nodes))
	if load < 0.8*h.Load || load > 1.2*h.Load {
		t.Fatalf("offered load %.3f, want within 20%% of target %.2f", load, h.Load)
	}
	t.Logf("huge composition: offered load %.3f (target %.2f), %d jobs over %.1f days",
		load, h.Load, tr.Len(), span/86400)
}

// refStream is the sequential generator the producers replaced, kept as the
// reference: every stream is drawn on the caller's goroutine, one job ahead
// of the merge, with the same strict-< merge, IDs and rebase.
func refStream(h HugeSpec, n int, seed uint64, yield func(*trace.Job) error) error {
	if n <= 0 || h.Streams <= 0 {
		return nil
	}
	parts := make([]*hugePart, h.Streams)
	next := make([]*trace.Job, h.Streams)
	for s := range parts {
		parts[s] = h.part(s, seed)
		next[s] = new(trace.Job)
		parts[s].draw(next[s])
	}
	var base int64
	for id := 1; id <= n; id++ {
		min := 0
		for s := 1; s < len(parts); s++ {
			if next[s].Submit < next[min].Submit {
				min = s
			}
		}
		j := next[min]
		next[min] = new(trace.Job)
		parts[min].draw(next[min])
		if id == 1 {
			base = j.Submit
		}
		j.ID = id
		j.Submit -= base
		if err := yield(j); err != nil {
			return err
		}
	}
	return nil
}

// hashJob feeds every field of j into h.
func hashJob(h hash.Hash64, j *trace.Job) {
	var b [8]byte
	for _, v := range []int64{int64(j.ID), j.Submit, j.Runtime, j.Request, int64(j.Procs), int64(j.Mem), int64(j.Priority),
		int64(j.User), int64(j.Group), int64(j.Executable), int64(j.Queue), int64(j.Partition), int64(j.Status)} {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func collect(t *testing.T, stream func(int, uint64, func(*trace.Job) error) error, n int, seed uint64) []*trace.Job {
	t.Helper()
	var jobs []*trace.Job
	if err := stream(n, seed, func(j *trace.Job) error {
		jobs = append(jobs, j)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return jobs
}

// settleGoroutines fails if the goroutine count does not fall back to base.
// On one P the count is exact once Stream returns: the last producer leaves
// the scheduler before the merge it released can run, and a producer that
// Stream failed to wait for has not run since done closed. On more Ps a
// producer that has released the merge may still be leaving, so the check
// polls.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	polls := 200
	if runtime.GOMAXPROCS(0) == 1 {
		polls = 0
	}
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == polls {
			t.Fatalf("%d goroutines after the call, %d before: a producer outlived it", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHugeProducerDifferential compares Stream and Generate job for job
// with the sequential reference, over stream counts, trace lengths around
// the chunk size, and a tie-heavy geometry, at GOMAXPROCS 1 and 4. A
// shorter trace of the same spec and seed is a prefix of a longer one, so
// each geometry's reference is drawn once at the longest length. Every call
// calibrates every stream, so -short (the race-detector CI step) keeps only
// the longest row of the 64- and 256-stream geometries.
func TestHugeProducerDifferential(t *testing.T) {
	const long = 30_000
	type geom struct {
		name string
		h    HugeSpec
	}
	var geoms []geom
	for _, k := range []int{1, 4, 16, 64, 256} {
		geoms = append(geoms, geom{fmt.Sprintf("streams=%d", k), Huge(256*k, k, 0.8)})
	}
	// Load 40 packs many arrivals into each second, so heads of different
	// streams often share a submit time and the tie rule decides the order.
	geoms = append(geoms, geom{"ties", Huge(4096, 16, 40)})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for gi, g := range geoms {
		seed := uint64(100 + gi)
		ref := collect(t, func(n int, seed uint64, y func(*trace.Job) error) error { return refStream(g.h, n, seed, y) }, long, seed)
		if g.name == "ties" {
			ties := crossStreamTies(g.h, ref)
			t.Logf("tie geometry: %d cross-stream ties in %d jobs", ties, long)
			if ties < 1000 {
				t.Fatalf("tie geometry has only %d cross-stream ties", ties)
			}
		}
		k, chunk := g.h.Streams, hugeChunk(long, g.h.Streams)
		ns := []int{0, 1, k - 1, chunk - 1, chunk, chunk + 1, long}
		if testing.Short() && k > 16 {
			ns = []int{long}
		}
		for _, n := range ns {
			if n < 0 {
				continue
			}
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				want := ref[:n]
				got := collect(t, g.h.Stream, n, seed)
				diffJobs(t, fmt.Sprintf("%s n=%d procs=%d Stream", g.name, n, procs), got, want)
				diffJobs(t, fmt.Sprintf("%s n=%d procs=%d Generate", g.name, n, procs), g.h.Generate(n, seed).Jobs, want)
			}
		}
	}
}

// crossStreamTies counts adjacent jobs of different streams that share a
// submit time; a job's stream is recoverable from its user id.
func crossStreamTies(h HugeSpec, jobs []*trace.Job) int {
	ties := 0
	for i := 1; i < len(jobs); i++ {
		a, b := jobs[i-1], jobs[i]
		if a.Submit == b.Submit && (a.User-1)/h.Base.Users != (b.User-1)/h.Base.Users {
			ties++
		}
	}
	return ties
}

func diffJobs(t *testing.T, what string, got, want []*trace.Job) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d jobs, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if *got[i] != *want[i] {
			t.Fatalf("%s: job %d is %+v, reference %+v", what, i, *got[i], *want[i])
		}
	}
}

// TestHugeDigests pins the generated traces to the digests of the
// sequential generator they were first drawn with (FNV-1a over every field
// of every job), defaults included, so the output stays byte-identical
// across changes to how streams are run.
func TestHugeDigests(t *testing.T) {
	for _, c := range []struct {
		h      HugeSpec
		n      int
		seed   uint64
		digest uint64
	}{
		{Huge(0, 0, 0), 1, 1, 0xa125be2e0b5782b4},
		{Huge(0, 0, 0), 25_000, 1, 0x3d2b305514c8b7b6},
		{Huge(1024, 4, 0.8), 5000, 2, 0xc9a6c362bc6ad7e3},
		{Huge(4096, 1, 0.8), 30_000, 3, 0x243b17bbc3c4e7a0},
		{Huge(4096, 64, 0.8), 30_000, 4, 0x313b1f303a22a79e},
		{Huge(65536, 256, 0.8), 30_000, 5, 0xe26f440db1848c33},
		{Huge(4096, 64, 40), 30_000, 6, 0x7824cd86b24c0b5a},
		{Huge(0, 0, 0), 1_000_003, 7, 0x1f072d9b83e8753c},
	} {
		if c.n > 100_000 && testing.Short() {
			continue
		}
		// Stream, not Generate: the million-job row then runs in flat memory.
		h := fnv.New64a()
		if err := c.h.Stream(c.n, c.seed, func(j *trace.Job) error {
			hashJob(h, j)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := h.Sum64(); got != c.digest {
			t.Errorf("nodes=%d streams=%d load=%g n=%d seed=%d: digest %016x, want %016x",
				c.h.Nodes, c.h.Streams, c.h.Load, c.n, c.seed, got, c.digest)
		}
	}
}

// TestHugeStreamStopsProducers checks that a yield error ends Stream with
// that error after exactly the jobs yielded so far, and that no producer
// outlives the call, on early stops and on completion alike.
func TestHugeStreamStopsProducers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	errStop := errors.New("stop")
	h := Huge(0, 0, 0)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, stop := range []int{1, 2, 700, 5000} {
			base := runtime.NumGoroutine()
			yielded := 0
			err := h.Stream(5000, 3, func(*trace.Job) error {
				if yielded++; yielded == stop {
					return errStop
				}
				return nil
			})
			if err != errStop || yielded != stop {
				t.Fatalf("procs=%d stop at %d: err %v after %d jobs", procs, stop, err, yielded)
			}
			settleGoroutines(t, base)
		}
		base := runtime.NumGoroutine()
		if tr := h.Generate(5000, 3); tr.Len() != 5000 {
			t.Fatalf("procs=%d: Generate made %d jobs", procs, tr.Len())
		}
		settleGoroutines(t, base)
	}
}

// TestHugeNarrowMachine checks that on a machine narrower than one
// partition every job still fits, and that a full partition keeps the
// model's full width range.
func TestHugeNarrowMachine(t *testing.T) {
	for _, nodes := range []int{1, 64, 128, 255, 256} {
		tr := Huge(nodes, 0, 0).Generate(2000, 1)
		widest := 0
		for _, j := range tr.Jobs {
			if j.Procs < 1 || j.Procs > tr.Procs {
				t.Fatalf("nodes=%d: job %d requests %d procs on a %d-proc machine", nodes, j.ID, j.Procs, tr.Procs)
			}
			widest = max(widest, j.Procs)
		}
		if widest != nodes {
			t.Fatalf("nodes=%d: widest job %d, want the machine width", nodes, widest)
		}
	}
}
