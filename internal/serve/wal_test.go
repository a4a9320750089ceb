package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wal"
)

// walConfig is testConfig plus the durability triple rooted in dir.
func walConfig(clk Clock, dir string, fs wal.FS, compactEvery int) Config {
	cfg := testConfig(clk)
	cfg.SnapshotPath = filepath.Join(dir, "state.json")
	cfg.WALPath = filepath.Join(dir, "cmd.wal")
	cfg.CompactEvery = compactEvery
	cfg.FS = fs
	return cfg
}

// runScriptCancel plays a submission script, canceling every cancelEvery-th
// job that did not start immediately (cancelEvery 0: none). The cancel decision depends only on
// deterministic state, so reference and crash-recovered runs make the same
// calls.
func runScriptCancel(t *testing.T, s *Scheduler, clk *ManualClock, ops []scriptOp, from, cancelEvery int) {
	t.Helper()
	for i, op := range ops {
		clk.Advance(op.advance)
		res, err := s.Submit(op.req)
		if err != nil {
			t.Fatalf("submit %d: %v", from+i, err)
		}
		if cancelEvery > 0 && (from+i)%cancelEvery == 0 && !res.Started {
			if _, err := s.CancelJob(res.ID); err != nil {
				t.Fatalf("cancel %d: %v", res.ID, err)
			}
		}
	}
}

// refRun plays the whole script on a WAL-less daemon and returns the
// canonical record history — the uninterrupted run every recovery must match
// byte for byte.
func refRun(t *testing.T, ops []scriptOp, epoch time.Time, cancelEvery int) string {
	t.Helper()
	clk := NewManualClock(epoch)
	ref, err := New(testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	ref.Start()
	runScriptCancel(t, ref, clk, ops, 0, cancelEvery)
	clk.Advance(24 * time.Hour)
	st, err := ref.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return renderRecords(st.Records)
}

// TestServeWALCrashRecoveryByteIdentical is the tentpole differential: kill
// the daemon (no drain, no final snapshot, unsynced page cache discarded) at
// various points — including twice in one run — recover from snapshot + WAL
// tail, finish the script, and the complete schedule must be byte-identical
// to an uninterrupted run. The drain rows stop the daemon cleanly instead
// (drain snapshot written, files closed) and restart it through the same
// Recover: a planned restart must be as invisible as a crash.
func TestServeWALCrashRecoveryByteIdentical(t *testing.T) {
	const n = 240
	ops := makeScript(41, n, 32, false)
	epoch := time.Unix(1700000000, 0)
	want := refRun(t, ops, epoch, 0)

	for _, tc := range []struct {
		stopAt []int
		drain  bool
	}{
		{stopAt: []int{1}},
		{stopAt: []int{120}},
		{stopAt: []int{n - 1}},
		{stopAt: []int{80, 160}},
		{stopAt: []int{120}, drain: true},
	} {
		name := fmt.Sprint(tc.stopAt)
		if tc.drain {
			name = "drain" + name
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := wal.NewFaultFS(wal.OSFS{})
			clk := NewManualClock(epoch)
			cfg := walConfig(clk, dir, ffs, 0)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			next := 0
			for _, k := range tc.stopAt {
				runScriptCancel(t, s, clk, ops[next:k], next, 0)
				next = k
				if tc.drain {
					if _, err := s.Drain(); err != nil {
						t.Fatalf("drain at %d: %v", k, err)
					}
				} else {
					s.crash()
				}
				if err := ffs.Crash(); err != nil {
					t.Fatal(err)
				}
				var info *RecoveryInfo
				if s, info, err = Recover(cfg); err != nil {
					t.Fatalf("recover at %d: %v", k, err)
				}
				if info.HistoryTruncated != 0 {
					t.Fatalf("recover at %d: %d orphan history entries, want 0", k, info.HistoryTruncated)
				}
				s.Start()
			}
			runScriptCancel(t, s, clk, ops[next:], next, 0)
			clk.Advance(24 * time.Hour)
			st, err := s.Drain()
			if err != nil {
				t.Fatal(err)
			}
			if got := renderRecords(st.Records); got != want {
				t.Fatalf("stop at %v: schedule differs from uninterrupted run:\n got:\n%s\nwant:\n%s", tc.stopAt, got, want)
			}
			if len(st.Records) != n {
				t.Fatalf("stop at %v: %d records, want %d", tc.stopAt, len(st.Records), n)
			}
		})
	}
}

// TestServeWALCancelReplay runs the differential with cancellation traffic in
// the WAL tail.
func TestServeWALCancelReplay(t *testing.T) {
	const n, cancelEvery = 200, 7
	ops := makeScript(87, n, 32, false)
	epoch := time.Unix(1700000000, 0)
	want := refRun(t, ops, epoch, cancelEvery)

	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS{})
	clk := NewManualClock(epoch)
	cfg := walConfig(clk, dir, ffs, 0)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	runScriptCancel(t, s, clk, ops[:130], 0, cancelEvery)
	s.crash()
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	s, _, err = Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	runScriptCancel(t, s, clk, ops[130:], 130, cancelEvery)
	clk.Advance(24 * time.Hour)
	st, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got := renderRecords(st.Records); got != want {
		t.Fatalf("cancel replay differs from uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestServeWALCompactionBoundsRecovery forces frequent rotations and checks
// both that they happen (generation climbs) and that they work: recovery
// replays only the records since the last snapshot, not the whole history,
// and the final schedule is still byte-identical.
func TestServeWALCompactionBoundsRecovery(t *testing.T) {
	const n, every = 240, 32
	ops := makeScript(63, n, 32, false)
	epoch := time.Unix(1700000000, 0)
	want := refRun(t, ops, epoch, 0)

	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS{})
	clk := NewManualClock(epoch)
	cfg := walConfig(clk, dir, ffs, every)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	runScriptCancel(t, s, clk, ops[:200], 0, 0)
	s.crash()
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	s, info, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each submission writes at most three records, and rotation triggers as
	// soon as the count crosses `every` — so the replayed tail is bounded by
	// one rotation window plus one command, independent of history length.
	if info.Applied > every+4 {
		t.Fatalf("recovery replayed %d records; compaction should bound the tail near %d", info.Applied, every)
	}
	if info.WALGen < 10 {
		t.Fatalf("generation %d after 200 submissions at CompactEvery=%d; rotations are not happening", info.WALGen, every)
	}
	if info.PriorRecords == 0 {
		t.Fatal("no prior records came from the history log")
	}
	s.Start()
	runScriptCancel(t, s, clk, ops[200:], 200, 0)
	clk.Advance(24 * time.Hour)
	st, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got := renderRecords(st.Records); got != want {
		t.Fatalf("compacted recovery differs from uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestCompactionCapturesLiveStateOnly pins what state.go promises of a
// rotation: the snapshot it writes is the live-state form (byte for byte what
// stripping a full capture gives, idempotency keys included), and building it
// does not copy the record history — with every job finished, capturing the
// live state allocates less than one copy of the records would.
func TestCompactionCapturesLiveStateOnly(t *testing.T) {
	const n = 400
	ops := makeScript(17, n, 32, false)
	clk := NewManualClock(time.Unix(1700000000, 0))
	cfg := walConfig(clk, t.TempDir(), wal.OSFS{}, 0)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	for i, op := range ops {
		clk.Advance(op.advance)
		op.req.IdemKey = fmt.Sprintf("key-%d", i)
		if _, err := s.Submit(op.req); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	clk.Advance(24 * time.Hour)
	if _, err := s.Stats(); err != nil { // runs the event train: every job finishes
		t.Fatal(err)
	}
	s.crash() // the run goroutine is gone: its methods are this goroutine's to call

	full, err := s.captureState()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Records) != n || len(full.Idem) != n {
		t.Fatalf("captured %d records and %d idempotency keys, want %d of each", len(full.Records), len(full.Idem), n)
	}
	full.Records, full.WALGen, full.WALRecords = nil, s.walGen+1, 0
	want, err := marshalState(full)
	if err != nil {
		t.Fatal(err)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	live := s.liveState()
	runtime.ReadMemStats(&m1)
	if live.Records != nil {
		t.Fatalf("live state carries %d records", len(live.Records))
	}
	if got, history := m1.TotalAlloc-m0.TotalAlloc, uint64(n)*uint64(unsafe.Sizeof(metrics.Record{})); got >= history {
		t.Fatalf("capturing the live state allocated %d B with nothing queued or running; one copy of the %d-record history is %d B", got, n, history)
	}

	s.compact()
	if s.degraded.Load() {
		t.Fatal("compaction degraded the daemon")
	}
	got, err := os.ReadFile(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rotation snapshot differs from the stripped full capture:\n got %s\nwant %s", got, want)
	}
}

// TestServeWALTornTailRecovery chops bytes off the WAL after a crash: the
// torn record is dropped cleanly, recovery still succeeds, and — because a
// torn advance only delays event processing to the next advance — the final
// schedule remains byte-identical.
func TestServeWALTornTailRecovery(t *testing.T) {
	const n = 160
	ops := makeScript(29, n, 32, false)
	epoch := time.Unix(1700000000, 0)
	want := refRun(t, ops, epoch, 0)

	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS{})
	clk := NewManualClock(epoch)
	cfg := walConfig(clk, dir, ffs, 0)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	runScriptCancel(t, s, clk, ops[:100], 0, 0)
	s.crash()
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(cfg.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(cfg.WALPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	s, info, err := Recover(cfg)
	if err != nil {
		t.Fatalf("recover with torn tail: %v", err)
	}
	if !info.TornWAL {
		t.Fatal("torn tail not reported")
	}
	s.Start()
	runScriptCancel(t, s, clk, ops[100:], 100, 0)
	clk.Advance(24 * time.Hour)
	st, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got := renderRecords(st.Records); got != want {
		t.Fatalf("torn-tail recovery differs from uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestServeWALIdempotentSubmitAcrossCrash pins that idempotency keys survive
// the crash: a client retrying its submission after the daemon restarts gets
// the original job back, never a duplicate enqueue.
func TestServeWALIdempotentSubmitAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS{})
	epoch := time.Unix(1700000000, 0)
	clk := NewManualClock(epoch)
	cfg := walConfig(clk, dir, ffs, 0)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	res1, err := s.Submit(JobRequest{Procs: 4, Runtime: 500, IdemKey: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	dup, err := s.Submit(JobRequest{Procs: 4, Runtime: 500, IdemKey: "alpha"})
	if err != nil || !dup.Duplicate || dup.ID != res1.ID {
		t.Fatalf("live duplicate: %+v err %v, want duplicate of job %d", dup, err, res1.ID)
	}
	s.crash()
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	s, _, err = Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	dup2, err := s.Submit(JobRequest{Procs: 4, Runtime: 500, IdemKey: "alpha"})
	if err != nil || !dup2.Duplicate || dup2.ID != res1.ID {
		t.Fatalf("post-crash duplicate: %+v err %v, want duplicate of job %d", dup2, err, res1.ID)
	}
	fresh, err := s.Submit(JobRequest{Procs: 4, Runtime: 500, IdemKey: "beta"})
	if err != nil || fresh.Duplicate || fresh.ID == res1.ID {
		t.Fatalf("fresh key: %+v err %v, want a new job", fresh, err)
	}
	stats, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accepted != 2 {
		t.Fatalf("accepted %d, want 2 (one original + one fresh, no duplicates)", stats.Accepted)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestServeWALDegradedMode pins graceful degradation: when the disk starts
// failing, the daemon flips to in-memory mode — surfacing it through
// Degraded/Stats — and keeps scheduling rather than dying with jobs queued.
// Once the disk is back, the drained daemon must still restart: Recover over
// the same files rebuilds every job acknowledged before the first failed
// sync. Jobs acknowledged while degraded were never durable (/healthz said
// so) and are not expected back.
func TestServeWALDegradedMode(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS{})
	epoch := time.Unix(1700000000, 0)
	clk := NewManualClock(epoch)
	cfg := walConfig(clk, dir, ffs, 0)
	ops := makeScript(17, 60, 32, false)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	var durable []SubmitResult
	for i, op := range ops[:30] {
		clk.Advance(op.advance)
		res, err := s.Submit(op.req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		durable = append(durable, res)
	}
	if s.Degraded() {
		t.Fatal("degraded before any fault")
	}
	ffs.FailSyncsAfter(0)
	for i, op := range ops[30:] {
		clk.Advance(op.advance)
		if _, err := s.Submit(op.req); err != nil {
			t.Fatalf("submit %d during disk failure: %v (degraded mode must keep scheduling)", 30+i, err)
		}
	}
	if !s.Degraded() {
		t.Fatal("daemon not degraded after sync failures")
	}
	if s.DegradedReason() == "" {
		t.Fatal("degraded with no reason")
	}
	stats, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Degraded {
		t.Fatal("stats do not report degraded")
	}
	ffs.FailSyncsAfter(-1) // the disk comes back before the drain
	clk.Advance(24 * time.Hour)
	st, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != 60 {
		t.Fatalf("%d records after degraded run, want 60", len(st.Records))
	}

	s, info, err := Recover(cfg)
	if err != nil {
		t.Fatalf("restart after a degraded drain: %v", err)
	}
	if info.Verified == 0 || info.HistoryTruncated != 0 {
		t.Fatalf("recovery %+v: want records byte-verified against history and no orphans", info)
	}
	s.Start()
	clk.Advance(24 * time.Hour)
	for _, res := range durable {
		js, err := s.Status(res.ID)
		if err != nil {
			t.Fatal(err)
		}
		if js.State != "finished" || js.Submit != res.Submit {
			t.Fatalf("job %d acknowledged at %d before the disk failed: recovered as %+v", res.ID, res.Submit, js)
		}
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPathRequiresWAL pins that a snapshot path without a WAL is
// refused: Recover cannot restart from a snapshot no WAL extends.
func TestSnapshotPathRequiresWAL(t *testing.T) {
	cfg := testConfig(NewManualClock(time.Unix(1700000000, 0)))
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "state.json")
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "WALPath") {
		t.Fatalf("New with SnapshotPath and no WALPath: %v, want an error naming WALPath", err)
	}
}

// TestConfigRefusesNegativeSettings checks New, Recover and NewFollower
// refuse a negative PredictCap or CompactEvery and a negative or non-finite
// starvation bound before they open a file, and that 0 still means the
// default.
func TestConfigRefusesNegativeSettings(t *testing.T) {
	clk := NewManualClock(time.Unix(1700000000, 0))
	for _, c := range []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"predict-cap", func(cfg *Config) { cfg.PredictCap = -1 }, "PredictCap"},
		{"compact-every", func(cfg *Config) { cfg.CompactEvery = -7 }, "CompactEvery"},
		{"negative bound", func(cfg *Config) { cfg.Scenario.StarvationBound = -1 }, "starvation bound"},
		{"NaN bound", func(cfg *Config) { cfg.Scenario.StarvationBound = math.NaN() }, "starvation bound"},
		{"infinite bound", func(cfg *Config) { cfg.Scenario.StarvationBound = math.Inf(1) }, "starvation bound"},
	} {
		dir := t.TempDir()
		cfg := walConfig(clk, dir, nil, 0)
		c.set(&cfg)
		_, err := New(cfg)
		_, _, rerr := Recover(cfg)
		_, ferr := NewFollower(cfg, FollowConfig{Peers: []string{"http://127.0.0.1:1"}})
		for what, e := range map[string]error{"New": err, "Recover": rerr, "NewFollower": ferr} {
			if e == nil || !strings.Contains(e.Error(), c.want) {
				t.Errorf("%s: %s returned %v, want an error naming %s", c.name, what, e, c.want)
			}
		}
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("%s: a refused config left %d files in its directory", c.name, len(files))
		}
	}
	s, err := New(testConfig(clk))
	if err != nil {
		t.Fatalf("PredictCap, CompactEvery and the bound all 0: %v", err)
	}
	if s.cfg.PredictCap != 4096 || s.cfg.CompactEvery != 4096 {
		t.Errorf("zero settings resolved to PredictCap %d, CompactEvery %d; want the 4096 defaults", s.cfg.PredictCap, s.cfg.CompactEvery)
	}
}

// TestWALJobFieldsPriority pins the submit record's bytes (priority keeps
// its 8-byte slot) and checks the decoder rejects a priority outside
// [0, MaxInt32], in submit and history records alike, instead of
// truncating it into Job.Priority.
func TestWALJobFieldsPriority(t *testing.T) {
	j := &trace.Job{ID: 7, Submit: 1234, Runtime: 600, Request: 900, Procs: 16, Mem: 4096, Priority: 3}
	const want = "010700000000000000d2040000000000005802000000000000840300000000000010000000000000000010000000000000030000000000000002006b31"
	sub := encodeSubmit(nil, j, "k1")
	if got := hex.EncodeToString(sub); got != want {
		t.Fatalf("submit record %s, want %s", got, want)
	}
	rec := encodeRecord(nil, metrics.Record{Job: j, Start: 1300, End: 1900})
	const priOff = 1 + 6*8 // kind byte, then ID..Mem
	for _, pri := range []int64{math.MaxInt32, math.MaxInt32 + 1, -1, math.MinInt64, math.MaxInt64} {
		for _, enc := range [][]byte{sub, rec} {
			p := bytes.Clone(enc)
			binary.LittleEndian.PutUint64(p[priOff:], uint64(pri))
			r, err := decodeWalRec(p)
			if pri == math.MaxInt32 {
				if err != nil || r.job.Priority != math.MaxInt32 {
					t.Fatalf("kind %d priority %d: job %+v err %v, want it decoded", p[0], pri, r.job, err)
				}
				continue
			}
			if err == nil {
				t.Fatalf("kind %d priority %d decoded as %d, want an error", p[0], pri, r.job.Priority)
			}
		}
	}
}

// TestServeRecoverSnapshotWithOldJobKeys recovers from a snapshot whose jobs
// carry the SWF identity keys trace.Job used to have (Group, Executable,
// Queue, Partition, Status): json.Unmarshal ignores them, and the recovered
// daemon finishes the script with the uninterrupted run's schedule.
func TestServeRecoverSnapshotWithOldJobKeys(t *testing.T) {
	const n, stop = 240, 120
	ops := makeScript(43, n, 32, true)
	epoch := time.Unix(1700000000, 0)
	want := refRun(t, ops, epoch, 0)

	dir := t.TempDir()
	clk := NewManualClock(epoch)
	cfg := walConfig(clk, dir, wal.OSFS{}, 0)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	runScriptCancel(t, s, clk, ops[:stop], 0, 0)
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var patched int
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			if _, ok := v["Submit"]; ok {
				v["Group"], v["Executable"], v["Queue"], v["Partition"], v["Status"] = 3, 2, v["Priority"], 0, 1
				patched++
			}
			for _, c := range v {
				walk(c)
			}
		case []any:
			for _, c := range v {
				walk(c)
			}
		}
	}
	walk(doc)
	if patched == 0 {
		t.Fatal("drain snapshot holds no jobs; the test would prove nothing")
	}
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.SnapshotPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, _, err = Recover(cfg); err != nil {
		t.Fatal(err)
	}
	s.Start()
	runScriptCancel(t, s, clk, ops[stop:], stop, 0)
	clk.Advance(24 * time.Hour)
	st, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got := renderRecords(st.Records); got != want {
		t.Fatalf("schedule after recovering the old-key snapshot (%d jobs patched) differs:\n got:\n%s\nwant:\n%s", patched, got, want)
	}
	for _, r := range st.Records {
		if want := ops[r.Job.ID-1].req.Priority; int(r.Job.Priority) != want {
			t.Fatalf("job %d recovered with priority %d, submitted with %d", r.Job.ID, r.Job.Priority, want)
		}
	}
}
