package main

import (
	"testing"

	"repro/internal/backfill"
	"repro/internal/trace"
)

// Hand-built tree (times in ns):
//
//	client   [0,100)                       id 1
//	  handler  [10,90)                     id 2, parent 1
//	    round    [20,50)                   id 3, parent 2
//	    write    [45,60)  overlaps round   id 4, parent 2
//	    sync     [60,80)                   id 5, parent 2
//	    late     [85,120) runs past parent id 6, parent 2
func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "handler", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "round", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "write", Start: 45, End: 60},
		{ID: 5, Parent: 2, Name: "sync", Start: 60, End: 80},
		{ID: 6, Parent: 2, Name: "late", Start: 85, End: 120},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - 80,                // client minus handler
		2: 80 - (30 + 10 + 20 + 5), // union [20,80) plus [85,90) clipped to the parent
		3: 30, 4: 15, 5: 20, 6: 35, // leaves keep their whole duration
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestAdoptPicksTheHandlerThatEndsRightAfter(t *testing.T) {
	isH := func(n string) bool { return n == "handler" }
	isC := func(n string) bool { return n == "sync" }
	spans := []span{
		// Two handlers in flight; A's command runs first, B waits behind it.
		{ID: 1, Req: 7, Name: "handler", Start: 0, End: 52},
		{ID: 2, Req: 8, Name: "handler", Start: 5, End: 103},
		{ID: 3, Name: "sync", Start: 10, End: 50},              // inside both: A ends soonest after it
		{ID: 4, Name: "sync", Start: 60, End: 100},             // only B still open
		{ID: 5, Name: "sync", Start: 200, End: 210},            // timer-driven: no handler contains it
		{ID: 6, Req: 9, Name: "handler", Start: 205, End: 300}, // started after child 5 began
	}
	adopt(spans, isH, isC)
	if spans[2].Parent != 1 || spans[2].Req != 7 {
		t.Errorf("first sync adopted by %d (req %d), want handler 1 (req 7)", spans[2].Parent, spans[2].Req)
	}
	if spans[3].Parent != 2 || spans[3].Req != 8 {
		t.Errorf("second sync adopted by %d, want handler 2", spans[3].Parent)
	}
	if spans[4].Parent != 0 {
		t.Errorf("orphan sync adopted by %d, want none", spans[4].Parent)
	}
}

// A paused buffer records nothing and holds the decorators' counts still:
// that is how a traced daemon's start-up and warm-up stay out of the figures.
func TestPausedBufferHoldsSpansAndCounts(t *testing.T) {
	buf := newSpanBuf()
	buf.off.Store(true)
	tb := &timedBackfiller{inner: nopBackfiller{}, buf: buf}
	tb.Backfill(nil, nil, nil)
	if n := len(buf.snapshot()); n != 0 || tb.calls != 0 {
		t.Errorf("paused: %d spans, %d calls counted, want none", n, tb.calls)
	}
	buf.off.Store(false)
	tb.Backfill(fakeState{}, nil, nil)
	if n := len(buf.snapshot()); n != 1 || tb.calls != 1 {
		t.Errorf("resumed: %d spans, %d calls counted, want one of each", n, tb.calls)
	}
}

type nopBackfiller struct{}

func (nopBackfiller) Name() string                                      { return "nop" }
func (nopBackfiller) Backfill(backfill.State, *trace.Job, []*trace.Job) {}

// fakeState answers the one question the decorator asks of the engine.
type fakeState struct{ backfill.State }

func (fakeState) Running() []backfill.Running { return nil }
