package flow

import "sync"

// Point is one design-time allocation point on a prefix, as a request gives
// it: the allocation fields of repro.Config before any default is applied.
// Together with the prefix (design, name and row count) it determines the
// whole design-time answer.
type Point struct {
	Beta         float64
	MaxClusters  int
	MaxBiasPairs int
	Solver       string
}

// maxAnswers bounds one prefix's answer memo, the bound core.SolveCache
// uses: the points a caller revisits are a small grid, and the bound only
// guards against a caller sweeping a continuous beta.
const maxAnswers = 256

// Answers memoizes encoded design-time answers computed on one prefix, one
// per Point. It holds only successes, at most maxAnswers of them: once full
// it stores nothing more and evicts nothing. It lives and dies with its
// Prefix, so an evicted prefix drops its answers and a rebuilt one starts
// empty. The zero value is ready to use and safe for concurrent use.
type Answers struct {
	mu sync.RWMutex
	m  map[Point][]byte
}

// Load returns the answer stored for p. The bytes are shared: callers must
// not modify them.
func (a *Answers) Load(p Point) ([]byte, bool) {
	a.mu.RLock()
	b, ok := a.m[p]
	a.mu.RUnlock()
	return b, ok
}

// Store records b as the answer for p unless the memo is full. Two
// concurrent misses of one point may both store; their bytes are the same
// answer.
func (a *Answers) Store(p Point, b []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.m == nil {
		a.m = make(map[Point][]byte)
	}
	if len(a.m) < maxAnswers {
		a.m[p] = b
	}
}
