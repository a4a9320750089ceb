// Package eventq provides a deterministic timed-event queue for
// discrete-event scheduling simulation. The engine (internal/sim) feeds
// arrivals lazily from the submit-sorted trace and keeps its running jobs in
// its own heap on (end, job ID), so it queues only the Wake ticks of an
// aging scenario here; the Arrive and Finish kinds and their ordering
// contract are kept for callers that queue whole simulations' events.
//
// Queue is a binary min-heap ordered by (Time, Kind, Seq). A calendar queue
// was tried and removed: it measured no end-to-end win over the heap
// (DESIGN.md §9).
package eventq

// Kind distinguishes the event types of the scheduling simulator.
type Kind int

const (
	// Arrive is a job submission event.
	Arrive Kind = iota
	// Finish is a job completion event.
	Finish
	// Wake is a timed no-op that forces a scheduling round: the engine
	// queues one at each waiting job's starvation-transition instant so that
	// aging-based rank changes take effect on time even when no completion
	// or arrival happens to land there. Wakes order after Finish and Arrive
	// at equal times — the round must see the freed processors and the new
	// arrivals it is being woken for.
	Wake
)

// rank maps kinds to their same-timestamp processing order: completions
// free resources first, then arrivals, then wake ticks.
func rank(k Kind) int {
	switch k {
	case Finish:
		return 0
	case Arrive:
		return 1
	default:
		return 2
	}
}

// Event is one timed simulator event. Payload carries the subject (a job).
type Event struct {
	Time    int64
	Kind    Kind
	Seq     int // insertion sequence, breaks ties deterministically
	Payload any
}

// less is the total event order: completions at time t are processed before
// arrivals at t so freed processors are visible to the newly arrived job, and
// insertion order breaks remaining ties for determinism.
func less(a, b Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Kind != b.Kind {
		// Finish < Arrive < Wake at equal times: completions free resources
		// first, and wake ticks observe everything else.
		return rank(a.Kind) < rank(b.Kind)
	}
	return a.Seq < b.Seq
}

// Queue is the simulator's event queue: a min-heap of events ordered by
// (Time, Kind, Seq). Push stamps Seq in insertion order. The zero value is
// ready to use.
type Queue struct {
	seq int
	h   []Event
}

// Len returns the number of queued events.
func (q *Queue) Len() int { return len(q.h) }

// Push inserts an event, stamping its insertion sequence.
func (q *Queue) Push(e Event) {
	e.Seq = q.seq
	q.seq++
	q.h = append(q.h, e)
	q.up(len(q.h) - 1)
}

// Peek returns the earliest event without removing it. ok is false when the
// queue is empty.
func (q *Queue) Peek() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

// Pop removes and returns the earliest event. ok is false when the queue is
// empty.
func (q *Queue) Pop() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = Event{} // drop the payload reference
	q.h = q.h[:last]
	if last > 0 {
		q.down(0)
	}
	return top, true
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(q.h[i], q.h[parent]) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && less(q.h[l], q.h[smallest]) {
			smallest = l
		}
		if r < n && less(q.h[r], q.h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.h[i], q.h[smallest] = q.h[smallest], q.h[i]
		i = smallest
	}
}
