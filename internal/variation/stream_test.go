package variation

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sta"
	"repro/internal/tech"
)

// streamFixture builds the shared Analyzer/Allocator/nominal trio once for
// the YieldStream tests.
func streamFixture(t *testing.T) (*sta.Analyzer, *core.Allocator, *sta.Timing) {
	t.Helper()
	pl := placed(t, "c1355")
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nom, err := an.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	al, err := core.NewAllocator(pl, nom)
	if err != nil {
		t.Fatal(err)
	}
	return an, al, nom
}

// TestYieldStreamMatchesStudyInOrder: the stream must emit every die
// exactly once in increasing order and aggregate to byte-identical
// statistics as a run with no consumer — across chunk boundaries and
// worker counts.
func TestYieldStreamMatchesStudyInOrder(t *testing.T) {
	an, al, nom := streamFixture(t)
	proc := tech.Default45nm()
	dies := 20
	if !testing.Short() {
		dies = yieldChunk + 40 // cross the chunk boundary
	}
	opts := TuneOptions{GuardbandPct: 0.005}

	want, err := YieldStream(context.Background(), an, al, nom, proc, Default(), dies, 7, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opts.Workers = workers
		next := 0
		got, err := YieldStream(context.Background(), an, al, nom, proc, Default(), dies, 7, opts,
			func(die int, r *TuneResult) error {
				if die != next {
					t.Fatalf("workers=%d: emitted die %d, want %d", workers, die, next)
				}
				if r == nil {
					t.Fatalf("workers=%d: nil result for die %d", workers, die)
				}
				next++
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if next != dies {
			t.Fatalf("workers=%d: %d emits, want %d", workers, next, dies)
		}
		if *got != *want {
			t.Fatalf("workers=%d: stream stats diverged from study:\nstream: %+v\nstudy:  %+v",
				workers, got, want)
		}
	}
}

// TestYieldStreamEmitErrorAborts: a failing consumer stops the study.
func TestYieldStreamEmitErrorAborts(t *testing.T) {
	an, al, nom := streamFixture(t)
	boom := errors.New("consumer gone")
	calls := 0
	_, err := YieldStream(context.Background(), an, al, nom, tech.Default45nm(), Default(), 10, 3,
		TuneOptions{GuardbandPct: 0.005},
		func(die int, r *TuneResult) error {
			calls++
			if die == 3 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the emit error", err)
	}
	if calls != 4 {
		t.Fatalf("emit called %d times after error at die 3, want 4", calls)
	}
}

// TestYieldStreamReleasesResults is the structural bounded-memory proof:
// mid-stream, every TuneResult from chunks before the current one must be
// unreachable (collectable), i.e. YieldStream hands results over and forgets
// them instead of accumulating a per-die slice. Finalizers make "unreachable"
// observable: at die 3*yieldChunk the results of the first two chunks are
// dead no matter where the worker window sits, so after a forced GC their
// finalizers must have run. An implementation that accumulates results
// keeps every one of them live and fails the threshold.
func TestYieldStreamReleasesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk stream is a -short skip")
	}
	an, al, nom := streamFixture(t)
	proc := tech.Default45nm()
	dies := 3*yieldChunk + 16

	var finalized atomic.Int64
	checkAt := 3 * yieldChunk
	threshold := int64(2*yieldChunk - 8) // first two chunks, minus sequencing slack
	checked := false
	_, err := YieldStream(context.Background(), an, al, nom, proc, Default(), dies, 13,
		TuneOptions{GuardbandPct: 0.005},
		func(die int, r *TuneResult) error {
			runtime.SetFinalizer(r, func(*TuneResult) { finalized.Add(1) })
			if die == checkAt {
				checked = true
				deadline := time.Now().Add(5 * time.Second)
				for finalized.Load() < threshold {
					if time.Now().After(deadline) {
						t.Fatalf("at die %d only %d of %d earlier results were collectable: YieldStream accumulates",
							die, finalized.Load(), threshold)
					}
					runtime.GC()
					time.Sleep(time.Millisecond)
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("stream never reached the checkpoint")
	}
}
