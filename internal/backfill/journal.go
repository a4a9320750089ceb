package backfill

import (
	"sync/atomic"

	"repro/internal/trace"
)

// ChangeKind names what a journal entry records.
type ChangeKind uint8

const (
	// Started: a job began running at Time.
	Started ChangeKind = iota + 1
	// Finished: a running job left the machine at Time.
	Finished
	// Arrived: a job joined the waiting queue at Time.
	Arrived
)

// Change is one journal entry.
type Change struct {
	Kind ChangeKind
	Job  *trace.Job
	Time int64 // the instant of the change; for Started, the job's start
}

// Cursor is a position in one journal: every entry recorded before it has
// been seen. The zero Cursor belongs to no journal.
type Cursor struct{ journal, seq uint64 }

// Journal is a State's change log: every job start, finish and arrival, in
// the order they happened, each numbered in sequence. Backfillers that keep
// state across rounds (the reservation index, EASY's verdict, conservative
// backfilling's carried plan) hold a Cursor and read only the entries after
// it, instead of re-deriving the running set or the queue (DESIGN.md §6).
//
// A journal keeps its most recent entries only: storage is a fixed buffer
// whose older half is dropped when it fills, so a State that nobody reads
// stays bounded, and a consumer that fell behind sees its cursor rejected
// and starts over. Open gives the journal a new identity, which rejects
// every cursor handed out before it: a State opens a new journal whenever
// its running set changes, or its queue gains a job, other than through
// recorded entries (a new engine, a fake reset in place). Removing a waiting
// job (a cancel) needs no entry. Within one journal, running jobs have
// distinct IDs.
//
// The zero Journal is closed: it records nothing and rejects every cursor,
// which is correct for any State, only slower.
type Journal struct {
	id    uint64
	first uint64 // sequence number of log[0]
	log   []Change
}

// journalCap bounds a journal's memory. Consumers read it every scheduling
// round, so they trail by a handful of entries; a cursor that is trimmed
// away costs one rebuild, not a wrong answer.
const journalCap = 128

var journalIDs atomic.Uint64

// Open starts a new journal, reusing the storage: it has a fresh identity,
// no entries, and rejects every cursor of the previous one.
func (j *Journal) Open() {
	j.id, j.first = journalIDs.Add(1), 0
	if cap(j.log) < journalCap {
		j.log = make([]Change, 0, journalCap)
	}
	j.log = j.log[:0]
}

// Record appends one entry, dropping the oldest half of the buffer when it
// is full. It does nothing on a closed journal.
func (j *Journal) Record(kind ChangeKind, job *trace.Job, t int64) {
	if j.id == 0 {
		return
	}
	if len(j.log) == journalCap {
		n := copy(j.log, j.log[journalCap/2:])
		j.log = j.log[:n]
		j.first += journalCap / 2
	}
	j.log = append(j.log, Change{Kind: kind, Job: job, Time: t})
}

// Cursor returns the position after the last entry recorded.
func (j *Journal) Cursor() Cursor { return Cursor{j.id, j.first + uint64(len(j.log))} }

// Since returns the entries recorded after c, or ok=false when c belongs to
// another journal (or none) or its entries were dropped. The slice is the
// journal's storage: valid until the next Record.
func (j *Journal) Since(c Cursor) (changes []Change, ok bool) {
	if c.journal == 0 || c.journal != j.id || c.seq < j.first {
		return nil, false
	}
	return j.log[c.seq-j.first:], true
}
