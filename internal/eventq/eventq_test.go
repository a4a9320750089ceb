package eventq

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue
	if q.Len() != 0 {
		t.Fatal("fresh queue not empty")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue reported ok")
	}
}

func TestOrdering(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 30, Kind: Arrive})
	q.Push(Event{Time: 10, Kind: Arrive})
	q.Push(Event{Time: 20, Kind: Finish})
	times := []int64{}
	for q.Len() > 0 {
		e, _ := q.Pop()
		times = append(times, e.Time)
	}
	want := []int64{10, 20, 30}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("pop order %v, want %v", times, want)
		}
	}
}

func TestFinishBeforeArriveAtSameTime(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 5, Kind: Arrive, Payload: "a"})
	q.Push(Event{Time: 5, Kind: Finish, Payload: "f"})
	e, _ := q.Pop()
	if e.Kind != Finish {
		t.Fatal("Finish must be processed before Arrive at the same timestamp")
	}
}

func TestFIFOAmongTies(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Push(Event{Time: 7, Kind: Arrive, Payload: i})
	}
	for i := 0; i < 10; i++ {
		e, _ := q.Pop()
		if e.Payload.(int) != i {
			t.Fatalf("tie-break not FIFO: got %v at position %d", e.Payload, i)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 1})
	if _, ok := q.Peek(); !ok || q.Len() != 1 {
		t.Fatal("Peek changed queue size")
	}
}

// TestQueueMatchesSortedOracle fuzzes Queue against a sorted-slice oracle
// under the engine's access pattern: pushes, peeks and pops interleaved;
// equal times across Finish, Arrive and Wake; and pushes earlier than the
// last popped event (the engine makes them when a job starts and finishes
// inside the current batch horizon). Every Peek must preview the next Pop,
// and every Pop must return the oracle's least event by (Time, Kind, Seq).
func TestQueueMatchesSortedOracle(t *testing.T) {
	kindOrder := map[Kind]int{Finish: 0, Arrive: 1, Wake: 2} // same-time contract
	for seed := uint64(1); seed <= 30; seed++ {
		rng := stats.NewRNG(seed)
		var q Queue
		var oracle []Event // sorted by (Time, kindOrder, Seq)
		seq := 0
		// Time regimes per seed: heavy ties, wide spreads, and a drifting
		// clock that scatters pushes around (and behind) the last pop.
		regime := seed % 3
		last := int64(0)
		nextTime := func() int64 {
			switch regime {
			case 0:
				return rng.Int63n(50)
			case 1:
				return rng.Int63n(1_000_000)
			default:
				return last - 100 + rng.Int63n(5000)
			}
		}
		pop := func(where string) {
			pe, pok := q.Peek()
			ge, gok := q.Pop()
			if !pok || !gok || pe != ge {
				t.Fatalf("seed %d %s: Peek %+v (%v) but Pop %+v (%v)", seed, where, pe, pok, ge, gok)
			}
			if ge != oracle[0] {
				t.Fatalf("seed %d %s: popped %+v, oracle %+v", seed, where, ge, oracle[0])
			}
			oracle = oracle[1:]
			last = ge.Time
		}
		ops := int(rng.Int63n(400)) + 100
		for op := 0; op < ops; op++ {
			switch {
			case rng.Bool(0.55) || q.Len() == 0:
				e := Event{Time: nextTime(), Kind: Kind(rng.Intn(3)), Seq: seq, Payload: op}
				seq++
				q.Push(e) // Queue re-stamps Seq; same counter, same value
				// Insert after every event not strictly later in (Time, kind
				// order): pushes arrive in Seq order, so that is the Seq tie-break.
				i := sort.Search(len(oracle), func(i int) bool {
					o := oracle[i]
					return o.Time > e.Time || o.Time == e.Time && kindOrder[o.Kind] > kindOrder[e.Kind]
				})
				oracle = slices.Insert(oracle, i, e)
			case rng.Bool(0.3):
				if e, ok := q.Peek(); !ok || e != oracle[0] {
					t.Fatalf("seed %d op %d: peeked %+v (%v), oracle %+v", seed, op, e, ok, oracle[0])
				}
			default:
				pop(fmt.Sprintf("op %d", op))
			}
			if q.Len() != len(oracle) {
				t.Fatalf("seed %d op %d: queue len %d, oracle len %d", seed, op, q.Len(), len(oracle))
			}
		}
		for len(oracle) > 0 {
			pop("drain")
		}
		if _, ok := q.Pop(); ok || q.Len() != 0 {
			t.Fatalf("seed %d: queue retains %d events after the oracle drained", seed, q.Len())
		}
	}
}

// TestQueuePeekMatchesPop pins that Peek always previews exactly the event
// the next Pop returns over a long interleaved push/pop run, all kinds.
func TestQueuePeekMatchesPop(t *testing.T) {
	rng := stats.NewRNG(4)
	var q Queue
	for op := 0; op < 2000; op++ {
		if rng.Bool(0.55) || q.Len() == 0 {
			q.Push(Event{Time: rng.Int63n(10000), Kind: Kind(rng.Intn(3)), Payload: op})
		} else {
			pe, pok := q.Peek()
			ge, gok := q.Pop()
			if pok != gok || pe != ge {
				t.Fatalf("op %d: Peek %+v (%v) but Pop %+v (%v)", op, pe, pok, ge, gok)
			}
		}
	}
}

// Property: popping yields events in non-decreasing time order for any
// random push sequence, possibly interleaved with pops.
func TestHeapProperty(t *testing.T) {
	rng := stats.NewRNG(99)
	f := func(n uint8) bool {
		var q Queue
		m := int(n%100) + 1
		pushed := make([]int64, 0, m)
		for i := 0; i < m; i++ {
			tm := rng.Int63n(1000)
			q.Push(Event{Time: tm, Kind: Kind(rng.Intn(2))})
			pushed = append(pushed, tm)
			// occasionally pop mid-stream
			if rng.Bool(0.3) && q.Len() > 0 {
				e, _ := q.Pop()
				// remove one instance of e.Time from pushed
				for k, v := range pushed {
					if v == e.Time {
						pushed = append(pushed[:k], pushed[k+1:]...)
						break
					}
				}
			}
		}
		sort.Slice(pushed, func(i, j int) bool { return pushed[i] < pushed[j] })
		var prev int64 = -1
		idx := 0
		for q.Len() > 0 {
			e, ok := q.Pop()
			if !ok || e.Time < prev {
				return false
			}
			if idx >= len(pushed) || pushed[idx] != e.Time {
				return false
			}
			prev = e.Time
			idx++
		}
		return idx == len(pushed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
