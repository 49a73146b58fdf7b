package core

import "sync"

// SolveCache is a concurrency-safe memo of allocation outcomes over one
// Allocator, shared across workers, streams and requests. The clustering
// problem depends only on the nominal timing and the target options — never
// on the die — and the solvers are deterministic, so any two solves of the
// same (Options, Solver) pair return the same Solution; a population study
// (or a serving process fielding many of them) re-solves a handful of
// monitor-quantized targets over and over, and materialization (Allocator.At)
// dominates that cost. The cache removes the repeats across workers and
// across streams: a flow.Prefix carries one, so every /v1/yield request
// against a cached placement starts with the population's allocation set
// already solved.
//
// Concurrent misses on one key coalesce: the first caller materializes and
// solves, later callers block until the entry is filled. The cached Solution
// is owned by the cache and shared — callers must treat it as immutable and
// Clone before retaining, exactly as they must for Instance-owned solutions.
type SolveCache struct {
	al *Allocator
	mu sync.Mutex
	m  map[solveKey]*solveEntry
}

// maxSolveCache bounds the cache. Reusable targets are monitor-quantized
// (a few dozen distinct values on any realistic population); the bound only
// guards against a caller inserting continuous per-die targets.
const maxSolveCache = 256

// solveKey identifies one allocation instance: the normalized options plus
// the solver value (nil is stored as HeuristicSolver{}). Every Solver is a
// comparable value that is its own configuration, so two requests share an
// entry exactly when they share the solver configuration — ILPSolver{} from
// one request and from the next are one key.
type solveKey struct {
	beta            float64
	clusters, pairs int
	solver          Solver
}

type solveEntry struct {
	done     chan struct{}
	sol      *Solution // detached clone; nil when the solve failed
	solveErr error     // graceful beyond-compensation-range outcome
	fatal    error     // structural At failure, broadcast but never cached
}

// NewSolveCache returns an empty cache over al.
func NewSolveCache(al *Allocator) *SolveCache {
	return &SolveCache{al: al}
}

// Allocator returns the engine the cache memoizes; callers mixing several
// allocators must check it, since solutions are only valid for the placement
// and timing the Allocator was built on.
func (c *SolveCache) Allocator() *Allocator { return c.al }

// Len reports the number of cached entries (filled or in flight).
func (c *SolveCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Solve returns the allocation outcome for (opts, solver) through the cache,
// materializing and solving into buf on a miss. It keeps the two failure
// modes apart: solveErr is the deterministic
// beyond-compensation-range outcome (cached alongside solutions), err is a
// structural materialization failure (fatal, never cached). The returned
// Instance is buf (possibly grown) — callers thread it exactly as with
// Allocator.At — and on a cache hit buf is returned untouched.
func (c *SolveCache) Solve(opts Options, solver Solver, buf *Instance) (sol *Solution, inst *Instance, solveErr, err error) {
	if err := opts.normalize(); err != nil {
		return nil, buf, nil, err
	}
	if solver == nil {
		solver = HeuristicSolver{}
	}
	key := solveKey{beta: opts.Beta, clusters: opts.MaxClusters, pairs: opts.MaxBiasPairs, solver: solver}

	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.mu.Unlock()
		<-e.done
		if e.fatal != nil {
			return nil, buf, nil, e.fatal
		}
		return e.sol, buf, e.solveErr, nil
	}
	if c.m == nil {
		c.m = make(map[solveKey]*solveEntry)
	}
	if len(c.m) >= maxSolveCache {
		c.mu.Unlock()
		return c.solveUncached(opts, solver, buf)
	}
	e := &solveEntry{done: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()

	inst, err = c.al.At(opts, buf)
	if err != nil {
		// Broadcast the failure to coalesced waiters but drop the entry:
		// fatal errors are never cached.
		e.fatal = err
		c.mu.Lock()
		delete(c.m, key)
		c.mu.Unlock()
		close(e.done)
		return nil, buf, nil, err
	}
	s, serr := inst.Solve(solver)
	if s != nil {
		e.sol = s.Clone() // s lives in the Instance scratch
	}
	e.solveErr = serr
	close(e.done)
	return e.sol, inst, serr, nil
}

// solveUncached is the full-cache path: one materialize-and-solve on the
// caller's scratch, failure modes separated as in Solve.
func (c *SolveCache) solveUncached(opts Options, solver Solver, buf *Instance) (*Solution, *Instance, error, error) {
	inst, err := c.al.At(opts, buf)
	if err != nil {
		return nil, buf, nil, err
	}
	s, serr := inst.Solve(solver)
	return s, inst, serr, nil
}
