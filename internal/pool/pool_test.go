package pool

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestFanOutLowestIndexErrorWins fails index 5 before index 2; the error
// reported is still index 2's.
func TestFanOutLowestIndexErrorWins(t *testing.T) {
	fiveFailed := make(chan struct{})
	err := Each(8, 4, func(i int) error {
		switch i {
		case 2:
			<-fiveFailed
			return errors.New("index 2")
		case 5:
			defer close(fiveFailed)
			return errors.New("index 5")
		}
		return nil
	})
	if err == nil || err.Error() != "index 2" {
		t.Fatalf("got %v, want index 2's error", err)
	}
}

// TestFanOutStopsAfterFailure checks that, at one worker, no index after
// the failing one runs.
func TestFanOutStopsAfterFailure(t *testing.T) {
	var mu sync.Mutex
	var ran []int
	err := Each(6, 1, func(i int) error {
		mu.Lock()
		ran = append(ran, i)
		mu.Unlock()
		if i == 2 {
			return fmt.Errorf("index %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "index 2" {
		t.Fatalf("got %v, want index 2's error", err)
	}
	if !slices.Equal(ran, []int{0, 1, 2}) {
		t.Fatalf("ran %v, want [0 1 2]", ran)
	}
}
