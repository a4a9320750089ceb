package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Durability layer (DESIGN.md §13). Three files cooperate:
//
//	snapshot  (SnapshotPath)       live state, atomically replaced, O(state)
//	wal       (WALPath)            submit / cancel / clock advance commands
//	                               since the last rotation
//	history   (WALPath + ".hist")  append-only stream of every dispatch
//	                               record, the witness recovery checks
//
// Job starts and finishes are derived, not logged: replaying the commands
// re-derives them, and the history log is byte-compared against the replay.

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

// --- the durability owner ---

// durability owns the files: the command WAL, the history log and its
// cursor, the snapshot, the WAL generation and the encode buffer. Its
// methods return errors; the Scheduler decides what they mean (degradeOn).
// Run goroutine only, except gen and records, which /healthz, the fencing
// probes and the follower's stream loop read.
type durability struct {
	fs                wal.FS
	walPath, snapPath string

	wlog       *wal.Log      // command write-ahead log; nil = WAL off or degraded
	hlog       *wal.Log      // append-only completed-record history
	gen        atomic.Uint64 // WAL generation: the fencing token
	records    atomic.Int64  // records in generation gen
	histCount  int
	histDigest uint32 // chained CRC32C over history payloads
	encBuf     []byte

	mRecords     *metrics.Counter
	mBytes       *metrics.Gauge
	mCompactions *metrics.Counter
	hSync        *metrics.Histogram
}

// on reports whether the WAL is open (configured and not degraded).
func (d *durability) on() bool { return d.wlog != nil }

// cursor is the history position: record count and chained digest.
func (d *durability) cursor() (int, uint32) { return d.histCount, d.histDigest }

func (d *durability) histPath() string { return d.walPath + ".hist" }

// append frames one command payload into the WAL and returns it, or nil with
// the WAL off.
func (d *durability) append(p []byte) ([]byte, error) {
	if d.wlog == nil {
		return nil, nil
	}
	if err := d.wlog.Append(p); err != nil {
		return nil, fmt.Errorf("wal append: %w", err)
	}
	d.mRecords.Inc()
	d.mBytes.Set(d.wlog.Size())
	d.records.Add(1)
	return p, nil
}

func (d *durability) appendSubmit(j *trace.Job, idem string) ([]byte, error) {
	d.encBuf = encodeSubmit(d.encBuf[:0], j, idem)
	return d.append(d.encBuf)
}

func (d *durability) appendCancel(id int, t int64) ([]byte, error) {
	d.encBuf = encodeCancel(d.encBuf[:0], id, t)
	return d.append(d.encBuf)
}

func (d *durability) appendAdvance(t int64) ([]byte, error) {
	d.encBuf = encodeAdvance(d.encBuf[:0], t)
	return d.append(d.encBuf)
}

// sync makes the WAL durable.
func (d *durability) sync() error {
	if d.wlog == nil {
		return nil
	}
	t0 := time.Now()
	err := d.wlog.Sync()
	d.hSync.Observe(time.Since(t0).Seconds())
	if err != nil {
		return fmt.Errorf("wal sync: %w", err)
	}
	return nil
}

// history appends one completed record to the history log. It is
// re-derivable from the WAL, so it is synced only at snapshot boundaries.
func (d *durability) history(r metrics.Record) error {
	if d.hlog == nil {
		return nil
	}
	d.encBuf = encodeRecord(d.encBuf[:0], r)
	if err := d.hlog.Append(d.encBuf); err != nil {
		return fmt.Errorf("history append: %w", err)
	}
	d.histCount++
	d.histDigest = wal.Digest(d.histDigest, d.encBuf)
	return nil
}

// encodeSnapshot syncs the history log, so every record the snapshot's
// HistoryCount cursor covers is durable before the snapshot can be, and
// marshals st.
func (d *durability) encodeSnapshot(st *State) ([]byte, error) {
	if d.hlog != nil {
		if err := d.hlog.Sync(); err != nil {
			return nil, fmt.Errorf("history sync: %w", err)
		}
	}
	return marshalState(st)
}

// rotate writes data, a snapshot at generation gen, atomically and starts
// an empty WAL generation gen. History must hold every record it counts.
func (d *durability) rotate(gen uint64, data []byte) error {
	if err := wal.WriteFileAtomic(d.fs, d.snapPath, data); err != nil {
		return fmt.Errorf("snapshot write: %w", err)
	}
	if d.wlog != nil {
		d.wlog.Close()
		d.wlog = nil
	}
	wl, err := wal.Create(d.fs, d.walPath, gen)
	if err != nil {
		return fmt.Errorf("wal rotate: %w", err)
	}
	d.useWAL(wl)
	return nil
}

// useWAL makes wl the WAL, at its generation and record count.
func (d *durability) useWAL(wl *wal.Log) {
	d.wlog = wl
	d.gen.Store(wl.Gen())
	d.records.Store(int64(wl.Records()))
	d.mBytes.Set(wl.Size())
}

// writeSnapshot persists st outside the rotation path (drain) in the
// live-state form tied to the current WAL generation. Without a WAL — none
// configured, or degraded — it writes nothing: the on-disk triple stays the
// last consistent one, which Recover restarts from.
func (d *durability) writeSnapshot(st *State) error {
	if d.wlog == nil {
		return nil
	}
	cp := *st
	cp.Records = nil
	cp.WALGen = d.gen.Load()
	cp.WALRecords = int(d.records.Load())
	data, err := d.encodeSnapshot(&cp)
	if err == nil {
		err = wal.WriteFileAtomic(d.fs, d.snapPath, data)
	}
	if err != nil {
		return fmt.Errorf("snapshot write: %w", err)
	}
	return nil
}

// closeLogs closes both logs without syncing them.
func (d *durability) closeLogs() {
	if d.wlog != nil {
		d.wlog.Close()
		d.wlog = nil
	}
	if d.hlog != nil {
		d.hlog.Close()
		d.hlog = nil
	}
}

// close syncs and closes both logs (the drain path).
func (d *durability) close() error {
	var err error
	if d.wlog != nil {
		if err = d.wlog.Sync(); err != nil {
			err = fmt.Errorf("wal sync: %w", err)
		}
	}
	if d.hlog != nil && err == nil {
		if err = d.hlog.Sync(); err != nil {
			err = fmt.Errorf("history sync: %w", err)
		}
	}
	d.closeLogs()
	return err
}

// createHistory starts a fresh history log holding frames, durably, and
// points the history cursor at its end.
func (d *durability) createHistory(frames [][]byte) error {
	hl, err := wal.Create(d.fs, d.histPath(), 1)
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
	d.useHistory(hl, frames)
	return nil
}

// useHistory makes hl, which holds exactly frames, the history log, with the
// cursor at its end.
func (d *durability) useHistory(hl *wal.Log, frames [][]byte) {
	d.hlog = hl
	d.histCount = len(frames)
	d.histDigest = historyDigest(frames)
}

// repairHistory reopens the history log Replay read as hres at its first
// keep records, cutting a torn tail and orphans; a missing log is created.
func (d *durability) repairHistory(hres *wal.ReplayResult, keep int) error {
	if _, err := d.fs.Stat(d.histPath()); errors.Is(err, os.ErrNotExist) {
		return d.createHistory(nil)
	}
	goodSize := int64(16) // wal header
	for _, p := range hres.Records[:keep] {
		goodSize += 8 + int64(len(p))
	}
	hl, err := wal.OpenAppend(d.fs, d.histPath(), &wal.ReplayResult{
		Gen: hres.Gen, Records: hres.Records[:keep], GoodSize: goodSize,
	})
	if err != nil {
		return fmt.Errorf("serve: reopen history log: %w", err)
	}
	d.useHistory(hl, hres.Records[:keep])
	return nil
}

// reopenWAL reopens the WAL Replay read as wres in place, or creates an
// empty generation gen when there is none to resume.
func (d *durability) reopenWAL(wres *wal.ReplayResult, gen uint64) error {
	var wl *wal.Log
	var err error
	if wres != nil {
		wl, err = wal.OpenAppend(d.fs, d.walPath, wres)
	} else {
		wl, err = wal.Create(d.fs, d.walPath, gen)
	}
	if err != nil {
		return fmt.Errorf("serve: reopen wal: %w", err)
	}
	d.useWAL(wl)
	return nil
}

// decodeHistory decodes history-log frames into their records.
func decodeHistory(frames [][]byte) ([]metrics.Record, error) {
	recs := make([]metrics.Record, 0, len(frames))
	for i, p := range frames {
		rec, err := decodeWalRec(p)
		if err == nil && rec.kind != walKindRecord {
			err = fmt.Errorf("kind %d is not a record", rec.kind)
		}
		if err != nil {
			return nil, fmt.Errorf("history entry %d: %w", i, err)
		}
		recs = append(recs, metrics.Record{Job: rec.job, Start: rec.start, End: rec.end})
	}
	return recs, nil
}

// historyDigest folds the chained digest over history frames.
func historyDigest(frames [][]byte) uint32 {
	var sum uint32
	for _, p := range frames {
		sum = wal.Digest(sum, p)
	}
	return sum
}

// --- rotation: the Scheduler's seams over both owners ---

// maybeCompact rotates the files once the WAL holds CompactEvery records,
// bounding snapshot cost and recovery replay. Followers never compact on
// their own: they mirror the primary's rotations, so generation numbers (the
// fencing tokens) stay aligned.
func (s *Scheduler) maybeCompact() {
	if s.dur.on() && s.dur.records.Load() >= int64(s.cfg.CompactEvery) && s.rep.role.Load() == RolePrimary {
		s.compact()
	}
}

// compact writes a rotation snapshot and starts the next WAL generation.
// Crash windows are all safe: before the snapshot rename the old
// snapshot+WAL pair is intact; between rename and rotation the new snapshot
// supersedes the old WAL, whose generation now reads as stale and is
// discarded on recovery.
func (s *Scheduler) compact() error { return s.compactTo(s.dur.gen.Load() + 1) }

// compactTo rotates to an explicit generation: the primary always targets
// the next one; a follower mirrors whatever generation the primary's stream
// announces. A failure degrades, and is returned.
func (s *Scheduler) compactTo(gen uint64) error {
	if s.degraded.Load() {
		return fmt.Errorf("compaction: degraded: %s", s.DegradedReason())
	}
	// Publish any pending records first so the feed's previous-generation
	// buffer is complete before it rotates.
	s.rep.publish(s.dur.cursor())
	st := s.liveState() // the history log owns the record stream
	st.WALGen = gen
	data, err := s.dur.encodeSnapshot(st)
	if err == nil {
		err = s.rotate(gen, data)
	}
	if err != nil {
		return s.degradeOn(fmt.Errorf("compaction: %w", err))
	}
	s.dur.mCompactions.Inc()
	return nil
}

// rotate makes data, a rotation snapshot at generation gen, the durable base
// and rotates the replication feed onto it: the one bring-up behind
// compaction, a fresh daemon and a follower bootstrap.
func (s *Scheduler) rotate(gen uint64, data []byte) error {
	if err := s.dur.rotate(gen, data); err != nil {
		return err
	}
	s.rep.feed.Rotate(gen, data, s.dur.histCount, s.dur.histDigest)
	return nil
}

// initFreshWAL brings the durability files up for a brand-new daemon: an
// empty history log, then an initial snapshot plus WAL generation 1 — so
// recovery always finds a consistent triple, even after a crash seconds into
// the first run.
func (s *Scheduler) initFreshWAL() error {
	if err := s.dur.createHistory(nil); err != nil {
		return err
	}
	if err := s.compactTo(1); err != nil {
		return fmt.Errorf("serve: init durability: %w", err)
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
// newer generation (FenceCheck): it skips the final compaction, so an
// unreplicated WAL tail is not rebased into a generation that could tie with
// the promoted peer's lineage. The on-disk generation stays visibly stale,
// so a later -follow restart re-bootstraps from the new primary.
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
	// The scheduler is built over an empty cluster first; it opens no file.
	s, err := newEmpty(cfg)
	if err != nil {
		return nil, nil, err
	}
	d := &s.dur
	info := &RecoveryInfo{}

	// 1. Snapshot.
	var st *State
	switch loaded, err := readStateFS(d.fs, d.snapPath); {
	case err == nil:
		st = loaded
		info.SnapshotLoaded = true
		info.SnapshotClock = st.SimClock
	case errors.Is(err, os.ErrNotExist):
	default:
		return nil, nil, err
	}

	// 2. History log: prior history, then the suffix the replay must
	// reproduce.
	var hres *wal.ReplayResult
	switch res, err := wal.Replay(d.fs, d.histPath()); {
	case err == nil:
		hres = res
		info.TornHistory = res.Torn
	case errors.Is(err, os.ErrNotExist):
		hres = &wal.ReplayResult{Gen: 1}
	default:
		return nil, nil, fmt.Errorf("serve: history log: %w", err)
	}
	histJobs, err := decodeHistory(hres.Records)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
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

	// 3. Load the snapshot state with its prior history.
	if st != nil {
		if err := s.loadState(st, histJobs[:histBase]); err != nil {
			return nil, nil, err
		}
	}
	info.PriorRecords = histBase

	// 4. WAL tail: the snapshot's generation past the records it reflects.
	// An older generation (a crash between snapshot rename and rotation) is
	// wholly covered by the snapshot.
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
	switch res, err := wal.Replay(d.fs, d.walPath); {
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

	// 5. Replay commands: the kernel is deterministic, so this reproduces
	// the schedule the crashed process computed.
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

	// 7. Repair the history log: keep prior + verified entries, then append
	// the ones the crash lost. Orphans that ran ahead are re-derived
	// identically as the clock re-advances.
	if err := d.repairHistory(hres, histBase+common); err != nil {
		return nil, nil, err
	}
	for _, r := range rederived[common:] {
		if err := d.history(r); err != nil {
			return nil, nil, fmt.Errorf("serve: %w", err)
		}
		info.HistoryAppended++
	}

	// 8. Adopt the re-derived records and re-anchor the clock at the
	// furthest instant the files prove was reached.
	for _, r := range rederived {
		s.started[r.Job.ID] = r
		s.mStarted.Inc()
	}
	s.recSeen = len(rederived)
	s.replClock = max(s.replClock, s.eng.Now())
	s.simEpoch = s.replClock
	d.gen.Store(gen)

	if compactAfter {
		// 9. Compact, so the next crash does not replay this tail again.
		if err := s.compact(); err != nil {
			return nil, nil, fmt.Errorf("serve: post-recovery compaction: %w", err)
		}
	} else if err := d.reopenWAL(wres, gen); err != nil {
		// 9'. A follower restart reopens the WAL in place, so the stream
		// resumes at (gen, record count).
		return nil, nil, err
	}
	info.WALGen = d.gen.Load()
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
		s.stepThrough(t)
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
