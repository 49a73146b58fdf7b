package flow

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
)

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
	// A different forceRows is a different prefix.
	rows := prefixes[0].Placement.NumRows + 4
	p2, err := e.Prefix("c1355", rows)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == prefixes[0] || p2.Placement.NumRows != rows {
		t.Fatalf("forceRows %d variant has %d rows (cached automatic-rows prefix: %v)",
			rows, p2.Placement.NumRows, p2 == prefixes[0])
	}
	if n := e.prefixes.Len(); n != 2 || len(gen.All()) > enginePrefixes {
		t.Fatalf("engine holds %d prefixes, want 2; its bound %d must hold all %d built-ins",
			n, enginePrefixes, len(gen.All()))
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

// TestAnswersBound: a prefix's answer memo holds at most maxAnswers points
// and drops the least recently used first, so a point first asked after a
// sweep has filled it is computed once and then answered from the memo; a
// held point keeps its bytes, and a different solver string is a
// different point.
func TestAnswersBound(t *testing.T) {
	pfx, err := New().Prefix("c1355", 0)
	if err != nil {
		t.Fatal(err)
	}
	computed := 0
	get := func(p Point, b []byte) []byte {
		t.Helper()
		got, err := pfx.Answers.Get(context.Background(), p, func() ([]byte, error) {
			computed++
			return b, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for i := range maxAnswers {
		get(Point{MaxClusters: i}, []byte{byte(i)})
	}
	hot := Point{MaxClusters: maxAnswers}
	get(hot, []byte("hot"))
	before := computed
	if b := get(hot, []byte("again")); computed != before || !bytes.Equal(b, []byte("hot")) {
		t.Fatalf("point repeated after a %d-point sweep recomputed (answer %q)", maxAnswers, b)
	}
	if n := pfx.Answers.Len(); n != maxAnswers {
		t.Fatalf("memo holds %d answers, want %d", n, maxAnswers)
	}
	if b := get(Point{MaxClusters: 3}, []byte("again")); computed != before || !bytes.Equal(b, []byte{3}) {
		t.Fatalf("held point now answers %q", b)
	}
	if get(Point{MaxClusters: 4, Solver: "local"}, nil); computed != before+1 {
		t.Fatal("a different solver string shares the answer")
	}
	if get(Point{MaxClusters: 0}, nil); computed != before+2 {
		t.Fatal("the least recently used point outlived the bound")
	}
}
