package core

import (
	"context"

	"repro/internal/memo"
)

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
// It is a memo.Memo, so concurrent misses on one key coalesce onto one
// materialize-and-solve and the least recently used outcome is dropped
// first. The cached Solution is owned by the cache and shared — callers
// must treat it as immutable and Clone before retaining, exactly as they
// must for Instance-owned solutions.
type SolveCache struct {
	al *Allocator
	m  *memo.Memo[solveKey, outcome]
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

// outcome is one solve's result: a detached solution, or the graceful
// beyond-compensation-range solveErr, which is as deterministic as a
// solution and cached alongside them.
type outcome struct {
	sol      *Solution
	solveErr error
}

// NewSolveCache returns an empty cache over al.
func NewSolveCache(al *Allocator) *SolveCache {
	return &SolveCache{al: al, m: memo.New[solveKey, outcome](maxSolveCache)}
}

// Allocator returns the engine the cache memoizes; callers mixing several
// allocators must check it, since solutions are only valid for the placement
// and timing the Allocator was built on.
func (c *SolveCache) Allocator() *Allocator { return c.al }

// Len reports the number of cached entries (filled or in flight).
func (c *SolveCache) Len() int { return c.m.Len() }

// Solve returns the allocation outcome for (opts, solver) through the cache,
// materializing and solving into buf on a miss. It keeps the two failure
// modes apart: solveErr is the deterministic
// beyond-compensation-range outcome (cached alongside solutions), err is a
// structural materialization failure (the compute's error, so never
// cached). The returned Instance is buf (possibly grown) — callers thread it
// exactly as with Allocator.At — and on a cache hit buf is returned
// untouched.
func (c *SolveCache) Solve(opts Options, solver Solver, buf *Instance) (sol *Solution, inst *Instance, solveErr, err error) {
	if err := opts.normalize(); err != nil {
		return nil, buf, nil, err
	}
	if solver == nil {
		solver = HeuristicSolver{}
	}
	key := solveKey{beta: opts.Beta, clusters: opts.MaxClusters, pairs: opts.MaxBiasPairs, solver: solver}
	inst = buf
	o, err := c.m.Get(context.TODO(), key, func() (outcome, error) {
		in, err := c.al.At(opts, buf)
		if err != nil {
			return outcome{}, err
		}
		inst = in
		s, serr := in.Solve(solver)
		if s != nil {
			s = s.Clone() // s lives in the Instance scratch
		}
		return outcome{s, serr}, nil
	})
	if err != nil {
		return nil, buf, nil, err
	}
	return o.sol, inst, o.solveErr, nil
}
