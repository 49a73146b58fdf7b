package memo

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The memo's coalescing, LRU order, failure and context rules are pinned
// through fbbd's prefix layer (internal/serve's TestPrefixCache* tests);
// these pin the rules that layer never reaches.

// waitJoins polls until key's compute has n joined waiters.
func waitJoins[K comparable, V any](t *testing.T, m *Memo[K, V], n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Joins < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters never joined", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInFlightNeverEvicted: successes that push a memo past its capacity
// evict completed entries only; a compute still in flight keeps its entry,
// its waiter gets its value, and the value is resident afterwards.
func TestInFlightNeverEvicted(t *testing.T) {
	m := New[string, int](2)
	gate := make(chan struct{})
	slow := make(chan int, 2)
	go func() {
		v, _ := m.Get(context.Background(), "slow", func() (int, error) { <-gate; return 7, nil })
		slow <- v
	}()
	go func() {
		for m.Stats().Misses < 1 {
			time.Sleep(time.Millisecond)
		}
		v, _ := m.Get(context.Background(), "slow", nil)
		slow <- v
	}()
	waitJoins(t, m, 1)
	for i, k := range []string{"a", "b", "c"} {
		if v, err := m.Get(context.Background(), k, func() (int, error) { return i, nil }); err != nil || v != i {
			t.Fatalf("%s = %d, %v", k, v, err)
		}
	}
	if st := m.Stats(); st.Evictions != 2 || st.Len != 2 {
		t.Fatalf("with one compute in flight: %+v, want 2 evictions and 2 entries", st)
	}
	close(gate)
	for range 2 {
		if v := <-slow; v != 7 {
			t.Fatalf("in-flight compute answered %d, want 7", v)
		}
	}
	if v, err := m.Get(context.Background(), "slow", func() (int, error) { return 0, errors.New("recomputed") }); err != nil || v != 7 {
		t.Fatalf("in-flight value not resident after its compute: %d, %v", v, err)
	}
	if v, err := m.Get(context.Background(), "c", func() (int, error) { return 0, errors.New("recomputed") }); err != nil || v != 2 {
		t.Fatalf("newest value evicted: %d, %v", v, err)
	}
}

// TestPanicReleasesWaiters: a compute that panics releases its waiters
// with an error and leaves no entry, so the next Get computes again.
func TestPanicReleasesWaiters(t *testing.T) {
	m := New[string, int](2)
	gate := make(chan struct{})
	joined := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		m.Get(context.Background(), "k", func() (int, error) { <-gate; panic("boom") })
	}()
	go func() {
		for m.Stats().Misses < 1 {
			time.Sleep(time.Millisecond)
		}
		_, err := m.Get(context.Background(), "k", nil)
		joined <- err
	}()
	waitJoins(t, m, 1)
	close(gate)
	if err := <-joined; !errors.Is(err, errPanicked) {
		t.Fatalf("waiter of a panicked compute got %v", err)
	}
	if v, err := m.Get(context.Background(), "k", func() (int, error) { return 3, nil }); err != nil || v != 3 {
		t.Fatalf("after a panic: %d, %v", v, err)
	}
	if st := m.Stats(); st.Misses != 2 || st.FailedJoins != 1 || st.Len != 1 {
		t.Fatalf("stats off: %+v", st)
	}
}
