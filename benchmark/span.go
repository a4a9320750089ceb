package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the buffer was created. Parent is the ID of the span
// that caused this one (0 = root); spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanBuf collects spans in memory for the length of a traced run; nothing
// is written until the run ends, so recording costs one mutex and one append.
// A nil *spanBuf records nothing, which is how the untraced paths share code
// with the traced ones. A paused one records nothing either, and tells the
// decorators to keep their counts still: a daemon's start-up and warm-up
// traffic are not part of the run.
type spanBuf struct {
	off   atomic.Bool
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (b *spanBuf) paused() bool { return b != nil && b.off.Load() }

func newSpanBuf() *spanBuf { return &spanBuf{t0: time.Now()} }

// add records one finished span and returns its ID.
func (b *spanBuf) add(name string, req int64, parent int, start, end time.Time) int {
	if b == nil || b.off.Load() {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	id := len(b.spans) + 1
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(b.t0).Nanoseconds(), End: end.Sub(b.t0).Nanoseconds(),
	})
	return id
}

func (b *spanBuf) snapshot() []span {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]span(nil), b.spans...)
}

// write dumps the buffer as JSON (one array of spans).
func (b *spanBuf) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(b.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover. Overlapping children are counted
// once (union of intervals) and clipped to the parent, so two concurrent
// children cannot drive a self time negative.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// adopt links orphan spans (recorded on the daemon's single writer
// goroutine, which knows no request) to the request handler span that
// caused them. The writer serves one command at a time and replies as soon
// as the command's round and fsync are done, so the causing handler is the
// one that contains the child in time and ends soonest after it; a child no
// handler contains (a timer-driven advance) stays a root.
func adopt(spans []span, isParent, isChild func(name string) bool) {
	var parents []int
	for i, s := range spans {
		if isParent(s.Name) {
			parents = append(parents, i)
		}
	}
	sort.Slice(parents, func(a, b int) bool { return spans[parents[a]].End < spans[parents[b]].End })
	for i := range spans {
		c := &spans[i]
		if c.Parent != 0 || !isChild(c.Name) {
			continue
		}
		// Candidates are the handlers ending at or after the child, soonest
		// first. With two connections at most two handlers are in flight, so
		// a short look-ahead suffices; one that started after the child did
		// cannot have caused it.
		k0 := sort.Search(len(parents), func(k int) bool { return spans[parents[k]].End >= c.End })
		for k := k0; k < len(parents) && k < k0+8; k++ {
			if p := spans[parents[k]]; p.Start <= c.Start {
				c.Parent, c.Req = p.ID, p.Req
				break
			}
		}
	}
}
