package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/cell"
)

// TestSolveCacheMatchesDirectSolve: a cached outcome must be exactly what an
// uncached SolveAt of the same (opts, solver) returns — solution, graceful
// solveErr, and all — on both the filling call and every hit after it.
func TestSolveCacheMatchesDirectSolve(t *testing.T) {
	pl, tm := randomTimed(t, cell.Default(), 11)
	al, err := NewAllocator(pl, tm)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSolveCache(al)
	var inst, ref *Instance
	for _, beta := range []float64{0.02, 0.05, 0.02, 0.08, 0.05} {
		opts := Options{Beta: beta, MaxClusters: 3, MaxBiasPairs: 2}
		wantSol, refInst, wantErr := solveAt(al, opts, nil, ref)
		ref = refInst
		if wantErr != nil {
			t.Fatalf("beta %v: reference solve failed: %v", beta, wantErr)
		}
		sol, gotInst, solveErr, err := c.Solve(opts, nil, inst)
		inst = gotInst
		if err != nil || solveErr != nil {
			t.Fatalf("beta %v: cache solve failed: %v / %v", beta, err, solveErr)
		}
		requireSolutionsEqual(t, wantSol, sol, "cached vs direct")
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries after 3 distinct targets, want 3", c.Len())
	}
	if c.Allocator() != al {
		t.Fatal("Allocator accessor does not return the cached engine")
	}
}

// TestSolveCacheCachesGracefulFailure: the beyond-compensation-range outcome
// is deterministic and must be cached like a solution — a second call with
// the same impossible target returns the same solveErr without re-solving.
func TestSolveCacheCachesGracefulFailure(t *testing.T) {
	pl, tm := randomTimed(t, cell.Default(), 11)
	al, err := NewAllocator(pl, tm)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSolveCache(al)
	opts := Options{Beta: 0.99, MaxClusters: 3, MaxBiasPairs: 2}
	sol, inst, solveErr, err := c.Solve(opts, nil, nil)
	if err != nil {
		t.Fatalf("structural error for an in-range materialization: %v", err)
	}
	if solveErr == nil || sol != nil {
		t.Skip("beta 0.99 unexpectedly compensable on this fixture")
	}
	if c.Len() != 1 {
		t.Fatalf("graceful failure not cached: Len = %d", c.Len())
	}
	sol2, _, solveErr2, err := c.Solve(opts, nil, inst)
	if err != nil || sol2 != nil {
		t.Fatalf("cached failure replay: sol=%v err=%v", sol2, err)
	}
	if solveErr2 == nil || solveErr2.Error() != solveErr.Error() {
		t.Fatalf("cached solveErr %v, want %v", solveErr2, solveErr)
	}
}

// TestSolveCacheCoalesces: N goroutines missing on one key must all return
// the same shared Solution value (one materialize-and-solve, not N).
func TestSolveCacheCoalesces(t *testing.T) {
	pl, tm := randomTimed(t, cell.Default(), 11)
	al, err := NewAllocator(pl, tm)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSolveCache(al)
	opts := Options{Beta: 0.04, MaxClusters: 3, MaxBiasPairs: 2}
	const n = 8
	sols := make([]*Solution, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sol, _, solveErr, err := c.Solve(opts, nil, nil)
			if err != nil || solveErr != nil {
				t.Errorf("goroutine %d: %v / %v", i, err, solveErr)
				return
			}
			sols[i] = sol
		}(i)
	}
	wg.Wait()
	if c.Len() != 1 {
		t.Fatalf("%d entries for one key, want 1", c.Len())
	}
	for i := 1; i < n; i++ {
		if sols[i] != sols[0] {
			t.Fatalf("goroutine %d got a distinct Solution pointer: coalescing failed", i)
		}
	}
}

// TestSolveCacheKeysByConfiguration: the key is the solver's
// configuration, not its identity — nil and HeuristicSolver{} share one
// entry, every ParseSolver("ilp"/"local") value hits the entry the first one
// filled, and only a different node budget is a different key. Invalid
// options are rejected without inserting.
func TestSolveCacheKeysByConfiguration(t *testing.T) {
	pl, tm := randomTimed(t, cell.Default(), 11)
	al, err := NewAllocator(pl, tm)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSolveCache(al)
	opts := Options{Beta: 0.04, MaxClusters: 3, MaxBiasPairs: 2}
	solve := func(s Solver) *Solution {
		t.Helper()
		sol, _, solveErr, err := c.Solve(opts, s, nil)
		if err != nil || solveErr != nil {
			t.Fatalf("%#v: %v / %v", s, err, solveErr)
		}
		return sol
	}
	parse := func(name string, nodeLimit int) Solver {
		t.Helper()
		s, err := ParseSolver(name, nodeLimit)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range []struct {
		a, b Solver
		len  int
	}{
		{nil, HeuristicSolver{}, 1},
		{parse("heuristic", 0), parse("", 5), 1},
		{parse("ilp", 0), parse("ilp", 0), 2},
		{parse("local", 0), parse("local", 9), 3},
		{ILPSolver{NodeLimit: 1}, parse("ilp", 1), 4},
	} {
		if first, again := solve(tc.a), solve(tc.b); first != again {
			t.Errorf("%#v then %#v: second solve missed the first's entry", tc.a, tc.b)
		}
		if c.Len() != tc.len {
			t.Fatalf("after %#v: %d entries, want %d", tc.b, c.Len(), tc.len)
		}
	}
	if _, _, _, err := c.Solve(Options{Beta: -1}, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "beta") {
		t.Fatalf("invalid options not rejected: %v", err)
	}
	if c.Len() != 4 {
		t.Fatalf("invalid options inserted: %d entries", c.Len())
	}
}

// TestSolveCacheBounded: past maxSolveCache distinct keys the cache stays
// at its bound, and every key still solves.
func TestSolveCacheBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("filling the cache is a -short skip")
	}
	pl, tm := randomTimed(t, cell.Default(), 11)
	al, err := NewAllocator(pl, tm)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSolveCache(al)
	var inst *Instance
	for i := 0; i < maxSolveCache+16; i++ {
		opts := Options{Beta: 0.01 + 1e-5*float64(i), MaxClusters: 3, MaxBiasPairs: 2}
		_, got, _, err := c.Solve(opts, nil, inst)
		inst = got
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() > maxSolveCache {
			t.Fatalf("cache grew to %d entries, cap is %d", c.Len(), maxSolveCache)
		}
	}
	if c.Len() != maxSolveCache {
		t.Fatalf("cache holds %d entries, want the cap %d", c.Len(), maxSolveCache)
	}
}

// TestSolveCacheHotPointAfterSweep: a target first solved after a sweep
// has filled the cache is still cached, so its repeat is a hit, and the
// cache holds no more than its bound.
func TestSolveCacheHotPointAfterSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("filling the cache is a -short skip")
	}
	pl, tm := randomTimed(t, cell.Default(), 11)
	al, err := NewAllocator(pl, tm)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSolveCache(al)
	var inst *Instance
	solve := func(beta float64) {
		t.Helper()
		_, got, _, err := c.Solve(Options{Beta: beta, MaxClusters: 3, MaxBiasPairs: 2}, nil, inst)
		if err != nil {
			t.Fatal(err)
		}
		inst = got
	}
	for i := range maxSolveCache {
		solve(0.01 + 1e-5*float64(i))
	}
	solve(0.05)
	hits := c.m.Stats().Hits
	solve(0.05)
	if c.m.Stats().Hits != hits+1 {
		t.Fatal("a target repeated after a full sweep missed the cache")
	}
	if c.Len() != maxSolveCache {
		t.Fatalf("cache holds %d entries, want the cap %d", c.Len(), maxSolveCache)
	}
}
