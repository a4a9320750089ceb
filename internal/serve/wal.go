package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Durability layer (DESIGN.md §13). Three files cooperate:
//
//	snapshot  (SnapshotPath)       live state, atomically replaced, O(state)
//	wal       (WALPath)            state-changing commands since the last
//	                               rotation: submit / cancel / clock advance
//	history   (WALPath + ".hist")  append-only stream of every completed
//	                               record (job start+end), never rewritten
//
// Every state-changing command is framed, CRC'd and fsync'd into the WAL
// before the client sees its acknowledgement, so a SIGKILL at any instant
// loses no accepted submission. Recovery loads the
// snapshot, replays the WAL tail onto it and — because the kernel is
// deterministic — re-derives exactly the records the crashed process had
// produced; the history log is the witness: the re-derived stream is
// byte-compared against it. Job starts and finishes are not replayed as
// commands precisely because they are derived: a record is emitted at
// dispatch with its completion time fixed (no preemption), so the start
// entry subsumes the finish.

// WAL record kinds. The history log reuses the same framing with
// walKindRecord entries.
const (
	walKindSubmit  = 1
	walKindCancel  = 2
	walKindAdvance = 3
	walKindRecord  = 4
)

// walRec is one decoded WAL or history record.
type walRec struct {
	kind byte
	job  *trace.Job // submit, record
	id   int        // cancel
	time int64      // cancel, advance
	// start/end complete a walKindRecord entry.
	start, end int64
	idem       string
}

func appendJobFields(buf []byte, j *trace.Job) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(j.ID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(j.Submit))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(j.Runtime))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(j.Request))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(j.Procs))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(j.Mem))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(j.Priority))
	return buf
}

func decodeJobFields(p []byte) (*trace.Job, []byte, error) {
	if len(p) < 7*8 {
		return nil, nil, errors.New("serve: truncated job fields in wal record")
	}
	u := func(i int) int64 { return int64(binary.LittleEndian.Uint64(p[i*8:])) }
	// Priority keeps its 8-byte slot, so records are unchanged; a value
	// outside Job.Priority's range is corruption, not something to truncate.
	pri := u(6)
	if pri < 0 || pri > math.MaxInt32 {
		return nil, nil, fmt.Errorf("serve: wal record priority %d outside [0, %d]", pri, math.MaxInt32)
	}
	j := &trace.Job{
		ID:       int(u(0)),
		Submit:   u(1),
		Runtime:  u(2),
		Request:  u(3),
		Procs:    int(u(4)),
		Mem:      int(u(5)),
		Priority: int32(pri),
	}
	return j, p[7*8:], nil
}

func encodeSubmit(buf []byte, j *trace.Job, idem string) []byte {
	buf = append(buf, walKindSubmit)
	buf = appendJobFields(buf, j)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(idem)))
	buf = append(buf, idem...)
	return buf
}

func encodeCancel(buf []byte, id int, t int64) []byte {
	buf = append(buf, walKindCancel)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
	return buf
}

func encodeAdvance(buf []byte, t int64) []byte {
	buf = append(buf, walKindAdvance)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
	return buf
}

func encodeRecord(buf []byte, r metrics.Record) []byte {
	buf = append(buf, walKindRecord)
	buf = appendJobFields(buf, r.Job)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Start))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.End))
	return buf
}

func decodeWalRec(p []byte) (walRec, error) {
	if len(p) == 0 {
		return walRec{}, errors.New("serve: empty wal record")
	}
	kind, body := p[0], p[1:]
	switch kind {
	case walKindSubmit:
		j, rest, err := decodeJobFields(body)
		if err != nil {
			return walRec{}, err
		}
		if len(rest) < 2 {
			return walRec{}, errors.New("serve: truncated idempotency key length")
		}
		n := int(binary.LittleEndian.Uint16(rest))
		if len(rest) < 2+n {
			return walRec{}, errors.New("serve: truncated idempotency key")
		}
		return walRec{kind: kind, job: j, idem: string(rest[2 : 2+n])}, nil
	case walKindCancel:
		if len(body) < 16 {
			return walRec{}, errors.New("serve: truncated cancel record")
		}
		return walRec{
			kind: kind,
			id:   int(binary.LittleEndian.Uint64(body)),
			time: int64(binary.LittleEndian.Uint64(body[8:])),
		}, nil
	case walKindAdvance:
		if len(body) < 8 {
			return walRec{}, errors.New("serve: truncated advance record")
		}
		return walRec{kind: kind, time: int64(binary.LittleEndian.Uint64(body))}, nil
	case walKindRecord:
		j, rest, err := decodeJobFields(body)
		if err != nil {
			return walRec{}, err
		}
		if len(rest) < 16 {
			return walRec{}, errors.New("serve: truncated record entry")
		}
		return walRec{
			kind:  kind,
			job:   j,
			start: int64(binary.LittleEndian.Uint64(rest)),
			end:   int64(binary.LittleEndian.Uint64(rest[8:])),
		}, nil
	default:
		return walRec{}, fmt.Errorf("serve: unknown wal record kind %d", kind)
	}
}

// --- scheduler-side logging hooks (run goroutine only) ---

// degrade flips the daemon into degraded in-memory mode: the durability
// layer is closed, the reason is surfaced through /healthz, Stats and the
// rlbf_degraded gauge, and scheduling continues without persistence. The
// daemon prefers dropping durability over dropping jobs.
func (s *Scheduler) degrade(op string, err error) {
	if s.degraded.Load() {
		return
	}
	reason := fmt.Sprintf("%s: %v", op, err)
	s.degradedReason.Store(reason)
	s.degraded.Store(true)
	s.mDegraded.Set(1)
	s.closeLogs()
	log.Printf("serve: %s: durability lost (%s); continuing degraded in-memory", s.cfg.Name, reason)
	if s.feed != nil {
		// A degraded daemon cannot replicate (its WAL no longer advances).
		// With a live follower attached the follower holds the complete
		// acked history, so the right move is to stand down and let the
		// lease expiry promote it — continuing to accept writes here would
		// fork history the moment it does. Without followers, degraded
		// in-memory service remains the lesser evil.
		if s.feed.HasFollower(replLiveWindow(s.cfg)) && s.role.CompareAndSwap(RolePrimary, RoleFenced) {
			s.mRole.Set(int64(RoleFenced))
			log.Printf("serve: %s: durability lost with a live follower attached; self-fencing so the follower can take over", s.cfg.Name)
		}
		s.feed.Close()
	}
}

// replLiveWindow is how recently a follower session must have been heard
// from to count as alive. Stream long-polls are capped at one second
// server-side, so a healthy follower refreshes well inside this window.
func replLiveWindow(cfg Config) time.Duration {
	return max(3*cfg.ReplAckTimeout, 3*time.Second)
}

// Degraded reports whether the durability layer has failed and the daemon is
// running in-memory only.
func (s *Scheduler) Degraded() bool { return s.degraded.Load() }

// DegradedReason returns the first durability failure, or "".
func (s *Scheduler) DegradedReason() string {
	if r, ok := s.degradedReason.Load().(string); ok {
		return r
	}
	return ""
}

// walAppend frames one record into the WAL; failures degrade. The payload is
// also queued (copied — callers reuse encBuf) for the replication feed,
// published at the next round boundary so batch ends line up with history
// digest samples.
func (s *Scheduler) walAppend(payload []byte) {
	if s.wlog == nil {
		return
	}
	if err := s.wlog.Append(payload); err != nil {
		s.degrade("wal append", err)
		return
	}
	if s.feed != nil {
		s.repPend = append(s.repPend, append([]byte(nil), payload...))
	}
	s.mWALRecords.Inc()
	s.mWALBytes.Set(s.wlog.Size())
	s.walCount.Store(int64(s.wlog.Records()))
}

// walAdvance logs a clock advance that is about to fire engine events, so
// replay reaches the same instant before the same events.
func (s *Scheduler) walAdvance(now int64) {
	if s.wlog == nil {
		return
	}
	s.encBuf = encodeAdvance(s.encBuf[:0], now)
	s.walAppend(s.encBuf)
}

// walSync makes the WAL durable before a client acknowledgement.
func (s *Scheduler) walSync() {
	if s.wlog == nil {
		return
	}
	t0 := time.Now()
	err := s.wlog.Sync()
	s.hWALSync.Observe(time.Since(t0).Seconds())
	if err != nil {
		s.degrade("wal sync", err)
	}
}

// walHistory appends one completed record to the history log (group-synced
// at snapshot boundaries — history is re-derivable from the WAL, so it needs
// no per-record fsync).
func (s *Scheduler) walHistory(r metrics.Record) {
	if s.hlog == nil {
		return
	}
	s.encBuf = encodeRecord(s.encBuf[:0], r)
	if err := s.hlog.Append(s.encBuf); err != nil {
		s.degrade("history append", err)
		return
	}
	s.histCount++
	s.histDigest = wal.Digest(s.histDigest, s.encBuf)
}

// maybeCompact rotates the durability files once the WAL has accumulated
// CompactEvery records: sync history, atomically write a fresh live-state
// snapshot (generation g+1), then truncate the WAL by creating generation
// g+1. Both the per-snapshot write cost (O(live state)) and recovery replay
// (O(records since snapshot)) stay bounded instead of O(history). Followers
// never compact on their own — their rotations mirror the primary's via the
// stream, keeping generation numbers (the fencing tokens) aligned.
func (s *Scheduler) maybeCompact() {
	if s.wlog == nil || s.wlog.Records() < s.cfg.CompactEvery || s.role.Load() != RolePrimary {
		return
	}
	s.compact()
}

// compact writes a rotation snapshot and starts WAL generation walGen+1.
// Crash windows are all safe: before the snapshot rename the old
// snapshot+WAL pair is intact; between rename and rotation the new snapshot
// supersedes the old WAL, whose generation now reads as stale and is
// discarded on recovery.
func (s *Scheduler) compact() { s.compactTo(s.walGen + 1) }

// compactTo rotates to an explicit generation: the primary always targets
// walGen+1; a follower mirrors whatever generation the primary's stream
// announces.
func (s *Scheduler) compactTo(gen uint64) {
	if s.degraded.Load() {
		return
	}
	// Publish any pending records first so the feed's previous-generation
	// buffer is complete before it rotates.
	s.publishRepl()
	st := s.liveState() // the history log owns the record stream
	st.WALGen = gen
	data, err := s.encodeSnapshot(st)
	if err == nil {
		err = s.rotate(gen, data)
	}
	if err != nil {
		s.degrade("compaction", err)
		return
	}
	s.mCompactions.Inc()
}

// rotate makes data, a rotation snapshot at generation gen, the durable
// base: it writes the snapshot atomically, replaces the WAL with an empty
// generation gen and rotates the replication feed onto it. The history log
// must already hold every record the snapshot counts. This is the one
// bring-up behind compaction, a fresh daemon and a follower bootstrap.
func (s *Scheduler) rotate(gen uint64, data []byte) error {
	if err := wal.WriteFileAtomic(s.fs, s.cfg.SnapshotPath, data); err != nil {
		return fmt.Errorf("snapshot write: %w", err)
	}
	if s.wlog != nil {
		s.wlog.Close()
		s.wlog = nil
	}
	wl, err := wal.Create(s.fs, s.cfg.WALPath, gen)
	if err != nil {
		return fmt.Errorf("wal rotate: %w", err)
	}
	s.wlog = wl
	s.setGen(gen)
	s.walCount.Store(0)
	s.mWALBytes.Set(wl.Size())
	if s.feed != nil {
		s.feed.Rotate(gen, data, s.histCount, s.histDigest)
	}
	return nil
}

// setGen updates the run goroutine's generation and its atomic shadow.
func (s *Scheduler) setGen(gen uint64) {
	s.walGen = gen
	s.walGenA.Store(gen)
}

// encodeSnapshot syncs the history log, so every record the snapshot's
// HistoryCount cursor covers is durable before the snapshot can be, and
// marshals st.
func (s *Scheduler) encodeSnapshot(st *State) ([]byte, error) {
	if s.hlog != nil {
		if err := s.hlog.Sync(); err != nil {
			return nil, fmt.Errorf("history sync: %w", err)
		}
	}
	return marshalState(st)
}

// writeSnapshot persists the current state outside the rotation path
// (drain) in the live-state form tied to the current WAL
// generation. Without a WAL — none configured, or degraded — it writes
// nothing: the on-disk triple stays the last consistent one, which Recover
// restarts from.
func (s *Scheduler) writeSnapshot(st *State) error {
	if s.wlog == nil {
		return nil
	}
	cp := *st
	cp.Records = nil
	cp.WALGen = s.walGen
	cp.WALRecords = s.wlog.Records()
	data, err := s.encodeSnapshot(&cp)
	if err == nil {
		err = wal.WriteFileAtomic(s.fs, s.cfg.SnapshotPath, data)
	}
	if err != nil {
		s.degrade("snapshot write", err)
	}
	return err
}

// closeLogs closes both durability logs without syncing them.
func (s *Scheduler) closeLogs() {
	if s.wlog != nil {
		s.wlog.Close()
		s.wlog = nil
	}
	if s.hlog != nil {
		s.hlog.Close()
		s.hlog = nil
	}
}

// closeWAL syncs and closes the durability files (drain path).
func (s *Scheduler) closeWAL() {
	if s.wlog != nil {
		if err := s.wlog.Sync(); err != nil {
			s.degrade("wal sync", err)
		}
	}
	if s.hlog != nil {
		if err := s.hlog.Sync(); err != nil {
			s.degrade("history sync", err)
		}
	}
	s.closeLogs()
}

// historyPath is where the history log lives: beside the WAL it pairs with.
func historyPath(cfg Config) string { return cfg.WALPath + ".hist" }

// createHistory starts a fresh history log holding frames, durably, and
// points the history cursor at its end.
func (s *Scheduler) createHistory(frames [][]byte) error {
	hl, err := wal.Create(s.fs, historyPath(s.cfg), 1)
	if err != nil {
		return fmt.Errorf("serve: create history log: %w", err)
	}
	for _, p := range frames {
		if err = hl.Append(p); err != nil {
			break
		}
	}
	if err == nil {
		err = hl.Sync()
	}
	if err != nil {
		hl.Close()
		return fmt.Errorf("serve: write history log: %w", err)
	}
	s.useHistory(hl, frames)
	return nil
}

// useHistory makes hl, which holds exactly frames, the history log, with the
// cursor (record count, chained digest) at its end.
func (s *Scheduler) useHistory(hl *wal.Log, frames [][]byte) {
	s.hlog = hl
	s.histCount = len(frames)
	s.histDigest = 0
	for _, p := range frames {
		s.histDigest = wal.Digest(s.histDigest, p)
	}
}

// initFreshWAL brings the durability files up for a brand-new daemon: an
// empty history log, then an initial snapshot plus WAL generation 1 — so
// recovery always finds a consistent triple, even after a crash seconds into
// the first run.
func (s *Scheduler) initFreshWAL() error {
	if err := s.createHistory(nil); err != nil {
		return err
	}
	s.compactTo(1)
	if s.degraded.Load() {
		return fmt.Errorf("serve: init durability: %s", s.DegradedReason())
	}
	return nil
}

// --- recovery ---

// RecoveryInfo summarizes what Recover found and proved.
type RecoveryInfo struct {
	SnapshotLoaded bool  `json:"snapshot_loaded"`
	SnapshotClock  int64 `json:"snapshot_clock"`
	WALGen         uint64
	// PriorRecords came from the history log (completed before the
	// snapshot); Applied commands were replayed from the WAL tail; Rederived
	// records were produced by that replay; Verified of them were
	// byte-compared against the history log's post-snapshot entries.
	PriorRecords int
	Applied      int
	Rederived    int
	Verified     int
	// HistoryAppended history entries were missing (unsynced at the crash)
	// and re-written from the replay; HistoryTruncated orphan entries ran
	// ahead of the recoverable state and were dropped — replay re-derives
	// them identically as the clock re-advances.
	HistoryAppended  int
	HistoryTruncated int
	TornWAL          bool
	TornHistory      bool
	Elapsed          time.Duration
}

// ErrReplayDivergence reports that WAL replay produced a record stream that
// differs from the history log — determinism is broken or a file was
// tampered with, and the operator must intervene rather than trust either.
var ErrReplayDivergence = errors.New("serve: wal replay diverges from history log")

// Recover rebuilds a scheduler from the durability triple at
// cfg.SnapshotPath / cfg.WALPath / cfg.WALPath+".hist": load the snapshot (or
// start empty), replay the WAL tail, byte-verify the re-derived records
// against the history log, repair torn tails, and immediately compact so the
// next crash recovers from a fresh generation. Missing files are not errors
// — a daemon that crashed before its first snapshot recovers from whatever
// subset exists.
func Recover(cfg Config) (*Scheduler, *RecoveryInfo, error) {
	return recoverInternal(cfg, true)
}

// RecoverFenced is Recover for a daemon that already knows a peer holds a
// newer generation (FenceCheck): it rebuilds state for read service but skips
// the final compaction, so an unreplicated WAL tail is NOT rebased into a
// fresh generation that could tie with — while forking from — the promoted
// peer's lineage. The on-disk generation stays visibly stale, which lets a
// later -follow restart detect it and re-bootstrap from the new primary
// instead of resuming a forked history.
func RecoverFenced(cfg Config) (*Scheduler, *RecoveryInfo, error) {
	return recoverInternal(cfg, false)
}

// recoverInternal is Recover with the final compaction optional: a primary
// always compacts (bumping the generation, which doubles as taking a fresh
// fencing token); a restarting follower must NOT — its generation has to
// keep matching the primary's so the stream resumes in place.
func recoverInternal(cfg Config, compactAfter bool) (*Scheduler, *RecoveryInfo, error) {
	t0 := time.Now()
	if cfg.WALPath == "" {
		return nil, nil, errors.New("serve: Recover requires Config.WALPath")
	}
	if err := checkConfig(cfg); err != nil {
		return nil, nil, err
	}
	applyWALDefaults(&cfg)
	fs := cfg.FS
	info := &RecoveryInfo{}

	// 1. Snapshot.
	var st *State
	switch loaded, err := readStateFS(fs, cfg.SnapshotPath); {
	case err == nil:
		st = loaded
		info.SnapshotLoaded = true
		info.SnapshotClock = st.SimClock
	case errors.Is(err, os.ErrNotExist):
	default:
		return nil, nil, err
	}

	// 2. History log: every record completed so far, split at the snapshot
	// boundary into prior history and the post-snapshot suffix the replay
	// must reproduce.
	var hres *wal.ReplayResult
	switch res, err := wal.Replay(fs, historyPath(cfg)); {
	case err == nil:
		hres = res
		info.TornHistory = res.Torn
	case errors.Is(err, os.ErrNotExist):
		hres = &wal.ReplayResult{Gen: 1}
	default:
		return nil, nil, fmt.Errorf("serve: history log: %w", err)
	}
	histJobs := make([]metrics.Record, 0, len(hres.Records))
	for i, p := range hres.Records {
		rec, err := decodeWalRec(p)
		if err != nil || rec.kind != walKindRecord {
			return nil, nil, fmt.Errorf("serve: history entry %d: %v", i, err)
		}
		histJobs = append(histJobs, metrics.Record{Job: rec.job, Start: rec.start, End: rec.end})
	}
	histBase := 0
	if st != nil {
		histBase = st.HistoryCount
		if histBase > len(histJobs) {
			// The snapshot write syncs history first, so this means a file
			// was deleted or rolled back out-of-band. Recover what exists.
			log.Printf("serve: history log holds %d records, snapshot expects %d; continuing with what exists",
				len(histJobs), histBase)
			histBase = len(histJobs)
		}
	}

	// 3. Build the scheduler at the snapshot state, with prior history from
	// the history log rather than the snapshot body.
	s, err := newEmpty(cfg)
	if err == nil && st != nil {
		err = s.loadState(st, histJobs[:histBase])
	}
	if err != nil {
		return nil, nil, err
	}
	info.PriorRecords = histBase

	// 4. WAL tail: same generation as the snapshot, minus the prefix the
	// snapshot already reflects. A stale generation (crash inside compact,
	// after the snapshot rename and before the rotation) is wholly covered
	// by the snapshot and discarded.
	gen := uint64(1)
	skip := 0
	if st != nil {
		gen, skip = st.WALGen, st.WALRecords
		if gen == 0 {
			gen = 1 // legacy snapshot predating the WAL: adopt it as gen 1
			skip = 0
		}
	}
	var cmds [][]byte
	var wres *wal.ReplayResult
	switch res, err := wal.Replay(fs, cfg.WALPath); {
	case err == nil:
		wres = res
		info.TornWAL = wres.Torn
		switch {
		case wres.Gen == gen:
			if skip < len(wres.Records) {
				cmds = wres.Records[skip:]
			}
		case wres.Gen < gen:
			// Pre-rotation log; everything in it is inside the snapshot.
			wres = nil
		default:
			return nil, nil, fmt.Errorf("serve: wal generation %d is newer than snapshot generation %d — refusing to guess", wres.Gen, gen)
		}
	case errors.Is(err, os.ErrNotExist):
	default:
		return nil, nil, fmt.Errorf("serve: wal: %w", err)
	}

	// 5. Replay commands. The kernel is deterministic, so applying the same
	// submissions, cancellations and clock advances to the snapshot state
	// reproduces exactly the schedule the crashed process computed.
	for i, p := range cmds {
		if err := s.applyCommand(p); err != nil {
			return nil, nil, fmt.Errorf("serve: wal record %d: %w", skip+i, err)
		}
	}
	info.Applied = len(cmds)

	// 6. Verify: the re-derived record stream must byte-match the history
	// log's post-snapshot suffix on their common prefix.
	rederived := s.eng.Records()
	info.Rederived = len(rederived)
	post := histJobs[histBase:]
	common := min(len(post), len(rederived))
	var enc []byte
	for i := 0; i < common; i++ {
		enc = encodeRecord(enc[:0], rederived[i])
		if !bytes.Equal(enc, hres.Records[histBase+i]) {
			return nil, nil, fmt.Errorf("%w: record %d: replay {job %d start %d end %d} vs history {job %d start %d end %d}",
				ErrReplayDivergence, histBase+i,
				rederived[i].Job.ID, rederived[i].Start, rederived[i].End,
				post[i].Job.ID, post[i].Start, post[i].End)
		}
	}
	info.Verified = common
	info.HistoryTruncated = len(post) - common

	// 7. Repair the history log: keep header + prior + verified entries
	// (dropping both any torn tail and any orphan entries that ran ahead of
	// the recoverable state — replay re-derives those identically), then
	// append the entries the crash lost.
	keep := histBase + common
	goodSize := int64(16) // wal header
	for _, p := range hres.Records[:keep] {
		goodSize += 8 + int64(len(p))
	}
	if _, err := fs.Stat(historyPath(cfg)); errors.Is(err, os.ErrNotExist) {
		if err := s.createHistory(nil); err != nil {
			return nil, nil, err
		}
	} else {
		hl, err := wal.OpenAppend(fs, historyPath(cfg), &wal.ReplayResult{
			Gen: hres.Gen, Records: hres.Records[:keep], GoodSize: goodSize,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("serve: reopen history log: %w", err)
		}
		s.useHistory(hl, hres.Records[:keep])
	}
	for _, r := range rederived[common:] {
		s.walHistory(r)
		info.HistoryAppended++
	}

	// 8. Adopt the re-derived records into the daemon bookkeeping and
	// re-anchor the clock at the furthest instant the log proves was
	// reached: the snapshot clock or the latest replayed command (both in
	// replClock), or the engine's own clock.
	for _, r := range rederived {
		s.started[r.Job.ID] = r
		s.mStarted.Inc()
	}
	s.recSeen = len(rederived)
	s.replClock = max(s.replClock, s.eng.Now())
	s.simEpoch = s.replClock
	s.setGen(gen)

	if compactAfter {
		// 9. Compact immediately: the next crash recovers from a fresh
		// snapshot and an empty WAL instead of re-replaying this tail, which
		// keeps crash-loop recovery time bounded.
		s.compact()
		if s.degraded.Load() {
			return nil, nil, fmt.Errorf("serve: post-recovery compaction: %s", s.DegradedReason())
		}
	} else {
		// 9'. Follower restart: reopen the WAL in place (torn tail repaired)
		// so the stream resumes at (gen, record count) instead of forking a
		// new generation.
		var wl *wal.Log
		if wres != nil {
			wl, err = wal.OpenAppend(fs, cfg.WALPath, wres)
		} else {
			wl, err = wal.Create(fs, cfg.WALPath, gen)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("serve: reopen wal: %w", err)
		}
		s.wlog = wl
		s.walCount.Store(int64(wl.Records()))
		s.mWALBytes.Set(wl.Size())
	}
	info.WALGen = s.walGen
	info.Elapsed = time.Since(t0)
	return s, info, nil
}

// applyCommand applies one logged command to the engine: the one applier
// behind crash recovery's WAL replay and a follower's batch apply. A submit
// is injected with its bookkeeping; a cancel or an advance first steps the
// engine through its instant. replClock keeps the furthest instant a command
// proves was reached, and the predicted-start cache is dropped: the plan may
// have changed without a counted scheduling round.
func (s *Scheduler) applyCommand(p []byte) error {
	rec, err := decodeWalRec(p)
	if err != nil {
		return err
	}
	t := rec.time
	switch rec.kind {
	case walKindSubmit:
		if err := s.eng.Inject(rec.job); err != nil {
			return fmt.Errorf("submit of job %d: %v", rec.job.ID, err)
		}
		s.submitted[rec.job.ID] = rec.job
		if rec.idem != "" {
			s.idem[rec.idem] = rec.job.ID
		}
		s.nextID = max(s.nextID, rec.job.ID+1)
		s.mSubmits.Inc()
		t = rec.job.Submit
	case walKindCancel, walKindAdvance:
		s.stepTo(t)
		if rec.kind == walKindCancel {
			if s.eng.Cancel(rec.id) {
				s.mCancels.Inc()
			}
			s.canceledIDs[rec.id] = true
		}
	default:
		return fmt.Errorf("kind %d is not a command", rec.kind)
	}
	s.replClock = max(s.replClock, t)
	s.predStamp = -1
	return nil
}

// stepTo advances the engine through every event at or before t (the
// applier's twin of advanceTo, without wall-clock metrics or WAL writes).
func (s *Scheduler) stepTo(t int64) {
	for {
		et, ok := s.eng.NextEventTime()
		if !ok || et > t {
			return
		}
		s.eng.Step()
	}
}
