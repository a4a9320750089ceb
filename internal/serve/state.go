package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"

	"repro/internal/backfill"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wal"
)

// stateVersion guards the snapshot wire format; bump on incompatible change.
// Version 1 files from before the WAL era parse unchanged: the durability
// fields below all default to zero, which is exactly their legacy meaning.
const stateVersion = 1

// State is the daemon's crash-recovery snapshot: the engine snapshot fields
// (clock, queue, running set, pending arrivals) plus the serve-layer
// bookkeeping (ID allocator, cancellation log, idempotency index, record
// history). A State plus the stream of future submissions fully determines
// the rest of the schedule — the same invariant sim.Snapshot provides for
// batch replays, extended over the live path. It marshals to plain JSON so
// operators can inspect snapshots with standard tools.
//
// The on-disk snapshot (DESIGN.md §13) carries the live state only: Records
// is stripped (the append-only history log holds the record stream) and
// WALGen/WALRecords/HistoryCount tie the snapshot to its logs, so writing one
// costs O(live state), not O(history). Drain and CaptureState return the
// State with Records filled, for reporting.
type State struct {
	Version  int                `json:"version"`
	Name     string             `json:"name"`
	Procs    int                `json:"procs"`
	Mem      int                `json:"mem,omitempty"`
	SimClock int64              `json:"sim_clock"`
	NextID   int                `json:"next_id"`
	Queued   []*trace.Job       `json:"queued,omitempty"`
	Running  []backfill.Running `json:"running,omitempty"`
	Pending  []*trace.Job       `json:"pending,omitempty"`
	Canceled []int              `json:"canceled,omitempty"`
	Records  []metrics.Record   `json:"records,omitempty"`
	// Idem maps idempotency keys to the job IDs they were assigned, so a
	// client retry after a crash still deduplicates.
	Idem map[string]int `json:"idem,omitempty"`
	// WALGen is the write-ahead log generation this snapshot extends;
	// recovery discards a log older than the snapshot's generation.
	WALGen uint64 `json:"wal_gen,omitempty"`
	// WALRecords is the number of records of generation WALGen already
	// reflected in this snapshot; recovery replays only the records after.
	WALRecords int `json:"wal_records,omitempty"`
	// HistoryCount is the number of history-log records at the snapshot
	// instant: entries before it are prior history, entries after it must
	// match what WAL replay re-derives (the byte-identity check).
	HistoryCount int `json:"history_count,omitempty"`
}

// marshalState renders the snapshot JSON once, for callers that both persist
// it and hand it to the replication feed. The bytes are json.Marshal's, but
// written element by element into one buffer sized up front: a single
// json.Marshal of a deep queue grows a pooled buffer by doubling and then
// copies it out, several times the snapshot in short-lived heap at every
// compaction. Each element still goes through encoding/json, so values,
// escaping and the idempotency keys' order are exactly json.Marshal's.
func marshalState(st *State) ([]byte, error) {
	jobs := len(st.Queued) + len(st.Running) + len(st.Pending) + len(st.Records)
	w := stateEncoder{buf: bytes.NewBuffer(make([]byte, 0, 256+140*jobs+12*len(st.Canceled)+40*len(st.Idem)))}
	w.enc = json.NewEncoder(w.buf)
	w.field(`{"version":`, st.Version)
	w.field(`,"name":`, st.Name)
	w.field(`,"procs":`, st.Procs)
	if st.Mem != 0 {
		w.field(`,"mem":`, st.Mem)
	}
	w.field(`,"sim_clock":`, st.SimClock)
	w.field(`,"next_id":`, st.NextID)
	encodeList(&w, `,"queued":`, st.Queued)
	encodeList(&w, `,"running":`, st.Running)
	encodeList(&w, `,"pending":`, st.Pending)
	encodeList(&w, `,"canceled":`, st.Canceled)
	encodeList(&w, `,"records":`, st.Records)
	if len(st.Idem) > 0 {
		w.buf.WriteString(`,"idem":{`)
		for i, k := range slices.Sorted(maps.Keys(st.Idem)) {
			if i > 0 {
				w.buf.WriteByte(',')
			}
			w.value(k)
			w.buf.WriteByte(':')
			w.value(st.Idem[k])
		}
		w.buf.WriteByte('}')
	}
	if st.WALGen != 0 {
		w.field(`,"wal_gen":`, st.WALGen)
	}
	if st.WALRecords != 0 {
		w.field(`,"wal_records":`, st.WALRecords)
	}
	if st.HistoryCount != 0 {
		w.field(`,"history_count":`, st.HistoryCount)
	}
	w.buf.WriteByte('}')
	if w.err != nil {
		return nil, fmt.Errorf("serve: marshal state: %v", w.err)
	}
	return w.buf.Bytes(), nil
}

// stateEncoder writes JSON values into buf one at a time; the first error
// sticks and later writes are dropped.
type stateEncoder struct {
	buf *bytes.Buffer
	enc *json.Encoder
	err error
}

// value writes v as json.Marshal would (Encode adds a newline, dropped here).
func (w *stateEncoder) value(v any) {
	if w.err == nil {
		if w.err = w.enc.Encode(v); w.err == nil {
			w.buf.Truncate(w.buf.Len() - 1)
		}
	}
}

func (w *stateEncoder) field(key string, v any) {
	w.buf.WriteString(key)
	w.value(v)
}

// encodeList writes a non-empty list under key; an empty one is omitted, as
// the omitempty tags on State's lists have it.
func encodeList[T any](w *stateEncoder, key string, xs []T) {
	if len(xs) == 0 {
		return
	}
	w.buf.WriteString(key)
	for i := range xs {
		if i == 0 {
			w.buf.WriteByte('[')
		} else {
			w.buf.WriteByte(',')
		}
		w.value(xs[i])
	}
	w.buf.WriteByte(']')
}

// parseState validates snapshot bytes, whether read from disk (readStateFS)
// or received over the replication bootstrap.
func parseState(data []byte) (*State, error) {
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("serve: parse state: %v", err)
	}
	if st.Version != stateVersion {
		return nil, fmt.Errorf("serve: state has version %d, this build understands %d", st.Version, stateVersion)
	}
	if st.Procs <= 0 {
		return nil, fmt.Errorf("serve: state has non-positive machine size %d", st.Procs)
	}
	if st.NextID < 1 {
		st.NextID = 1
	}
	return &st, nil
}

// readStateFS loads and validates the snapshot file at path.
func readStateFS(fs wal.FS, path string) (*State, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st, err := parseState(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return st, nil
}
