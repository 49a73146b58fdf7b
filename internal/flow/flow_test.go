package flow

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheComputesOnce(t *testing.T) {
	var c Cache[*int]
	var calls atomic.Int32
	var wg sync.WaitGroup
	ptrs := make([]*int, 64)
	for g := range ptrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do("k", func() (*int, error) {
				calls.Add(1)
				n := 42
				return &n, nil
			})
			if err != nil {
				t.Error(err)
			}
			ptrs[g] = v
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	for _, p := range ptrs {
		if p != ptrs[0] {
			t.Fatal("callers got different cached pointers")
		}
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", c.Len())
	}
}

func TestCacheRetainsError(t *testing.T) {
	var c Cache[int]
	var calls int
	fail := errors.New("boom")
	for i := 0; i < 3; i++ {
		_, err := c.Do("bad", func() (int, error) { calls++; return 0, fail })
		if err != fail {
			t.Fatalf("got %v, want cached error", err)
		}
	}
	if calls != 1 {
		t.Fatalf("failing compute ran %d times, want 1", calls)
	}
}

func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		out, err := Map(context.Background(), workers, 100,
			func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	bad := func(i int) error { return fmt.Errorf("item %d failed", i) }
	_, err := Map(context.Background(), 8, 50, func(_ context.Context, i int) (int, error) {
		if i == 17 || i == 33 {
			return 0, bad(i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "item 17 failed" {
		t.Fatalf("got %v, want the lowest-index failure", err)
	}
}

func TestMapCancelStopsWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	_, err := Map(ctx, 2, 1000, func(_ context.Context, i int) (int, error) {
		if started.Add(1) == 1 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := started.Load(); n == 1000 {
		t.Error("cancellation did not stop pending items")
	}
}

func TestMapAllKeepsPartialResults(t *testing.T) {
	fail := errors.New("odd")
	out, errs := MapAll(context.Background(), 4, 10, func(_ context.Context, i int) (int, error) {
		if i%2 == 1 {
			return 0, fail
		}
		return i * 10, nil
	})
	for i := 0; i < 10; i++ {
		if i%2 == 1 {
			if errs[i] != fail {
				t.Fatalf("errs[%d] = %v, want failure", i, errs[i])
			}
		} else if errs[i] != nil || out[i] != i*10 {
			t.Fatalf("item %d: out=%d errs=%v", i, out[i], errs[i])
		}
	}
}

// TestEnginePrefixSharedUnderRace hammers one engine from many goroutines:
// the prefix must be computed once and every caller must observe the same
// immutable instance. Run with -race (the CI race job does).
func TestEnginePrefixSharedUnderRace(t *testing.T) {
	e := New()
	var wg sync.WaitGroup
	prefixes := make([]*Prefix, 16)
	for g := range prefixes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := e.Prefix("c1355", 0)
			if err != nil {
				t.Error(err)
				return
			}
			// Touch shared state the allocators read concurrently.
			if p.Placement.NumRows == 0 || p.Timing.DcritPS <= 0 || len(p.Design.Gates) == 0 {
				t.Error("incomplete prefix")
			}
			prefixes[g] = p
		}()
	}
	wg.Wait()
	for _, p := range prefixes {
		if p != prefixes[0] {
			t.Fatal("concurrent callers got different prefix instances")
		}
	}
	if n := e.prefixes.Len(); n != 1 {
		t.Fatalf("engine holds %d prefixes, want 1", n)
	}
	// A different forceRows is a different prefix but shares the stage-1
	// design cache.
	p2, err := e.Prefix("c1355", prefixes[0].Placement.NumRows+4)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == prefixes[0] {
		t.Fatal("forceRows variant returned the cached automatic-rows prefix")
	}
	if p2.Design != prefixes[0].Design {
		t.Fatal("forceRows variant regenerated the design instead of sharing stage 1")
	}
}

// TestMapWithWorkerState pins the MapWith contract: each worker gets its
// own state from newState, a state is never used by two items concurrently,
// results come back in index order, and the first failure cancels the pool.
func TestMapWithWorkerState(t *testing.T) {
	type state struct {
		id   int32
		busy atomic.Bool
	}
	var created atomic.Int32
	const n = 200
	out, err := MapWith(context.Background(), 8, n,
		func() *state { return &state{id: created.Add(1)} },
		func(_ context.Context, s *state, i int) (int32, error) {
			if !s.busy.CompareAndSwap(false, true) {
				t.Error("worker state used by two items concurrently")
			}
			defer s.busy.Store(false)
			return s.id, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("len(out) = %d, want %d", len(out), n)
	}
	if c := created.Load(); c < 1 || c > 8 {
		t.Fatalf("created %d states, want 1..8", c)
	}
	seen := map[int32]bool{}
	for _, id := range out {
		if id < 1 || id > created.Load() {
			t.Fatalf("item ran with unknown state id %d", id)
		}
		seen[id] = true
	}
	if len(seen) != int(created.Load()) {
		t.Fatalf("only %d of %d states ever ran an item", len(seen), created.Load())
	}
}

func TestMapWithSequentialSingleState(t *testing.T) {
	var created atomic.Int32
	out, err := MapWith(context.Background(), 1, 5,
		func() int32 { return created.Add(1) },
		func(_ context.Context, s int32, i int) (int, error) { return int(s) + i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if created.Load() != 1 {
		t.Fatalf("sequential run created %d states, want 1", created.Load())
	}
	for i, v := range out {
		if v != 1+i {
			t.Fatalf("out[%d] = %d, want %d", i, v, 1+i)
		}
	}
}

func TestMapWithFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	_, err := MapWith(context.Background(), 4, 50,
		func() struct{} { return struct{}{} },
		func(ctx context.Context, _ struct{}, i int) (int, error) {
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestAnswersBound: the zero Answers stores and loads, holds at most
// maxAnswers points, and once full stores nothing more and keeps what it
// holds.
func TestAnswersBound(t *testing.T) {
	var a Answers
	if _, ok := a.Load(Point{}); ok {
		t.Fatal("zero memo holds an answer")
	}
	for i := range maxAnswers + 1 {
		a.Store(Point{MaxClusters: i}, []byte{byte(i)})
	}
	if n := len(a.m); n != maxAnswers {
		t.Fatalf("memo holds %d answers, want %d", n, maxAnswers)
	}
	if _, ok := a.Load(Point{MaxClusters: maxAnswers}); ok {
		t.Fatal("a full memo stored a new point")
	}
	a.Store(Point{MaxClusters: 3}, []byte("again"))
	if b, ok := a.Load(Point{MaxClusters: 3}); !ok || !bytes.Equal(b, []byte{3}) {
		t.Fatalf("held point now answers %q, %v", b, ok)
	}
	if b, ok := a.Load(Point{MaxClusters: 4, Solver: "local"}); ok {
		t.Fatalf("a different solver string shares the answer %q", b)
	}
}
