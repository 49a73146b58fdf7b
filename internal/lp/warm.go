package lp

import "math"

const (
	// tolRefactor is the smallest pivot the refactor of a start basis
	// accepts; a smaller best candidate means the basis is (numerically)
	// singular for this problem.
	tolRefactor = 1e-7
	// tolDual is how far a start basis's reduced costs may be on the
	// wrong side of zero: the primal cleanup after the dual simplex
	// absorbs such round-off, anything larger means the basis is not
	// dual feasible.
	tolDual = 1e-7
)

// Basis is a simplex basis in a layout that depends only on the problem's
// shape — its variable count and relations — never on the bounds or the
// right-hand side. cols[i] is the column basic in row i: a structural
// index j < n, n+k for the slack of the k-th non-equality row, or -1 for
// an artificial (a basis holding one is unusable as a warm start). upper
// is a bitset over the structural columns nonbasic at their upper bound.
// A Basis is never modified once returned, so any number of goroutines
// may warm-start from it at once.
type Basis struct {
	cols  []int32
	upper []uint64
}

func (s *simplex) saveBasis() *Basis {
	b := &Basis{cols: make([]int32, s.m), upper: make([]uint64, (s.n+63)/64)}
	for i, c := range s.basis {
		if c >= s.artBase {
			c = -1
		}
		b.cols[i] = int32(c)
	}
	for j := 0; j < s.n; j++ {
		if s.stat[j] == atUpper {
			b.upper[j/64] |= 1 << (j % 64)
		}
	}
	return b
}

// Workspace holds the tableau and scratch of SolveFrom, so a sequence of
// warm solves — one goroutine's share of a branch-and-bound search —
// reuses one allocation instead of building an m x n tableau per LP. It
// also remembers the last basis it factored: siblings and strong-branching
// fans warm-start from one parent basis, and a repeat skips the refactor.
// A Workspace must not be used by two goroutines at once; its zero value
// is ready to use.
type Workspace struct {
	s    simplex
	buf  []float64 // tableau backing store
	used []bool    // refactor scratch: the row already holds a basic column
	fac  factored
}

// factored memoizes one refactor. The factored tableau depends only on the
// prepared problem's A and Rel and on the basis, never on the bounds or B,
// so a later warm start from the same basis against the same Prepared
// copies t and basis instead of refactoring. Every warm start, hit or miss,
// then applies ops — the refactor's row operations on the basic values —
// to its own right-hand side.
type factored struct {
	pp    *Prepared // the problem factored against (nil: no entry)
	b     *Basis    // the basis factored
	t     []float64 // the factored m x nCols tableau
	basis []int     // the column basic in each row
	ops   []rhsOp
}

// rhsOp is one refactor step on the basic values: xB[i] -= f*xB[r], or
// xB[i] *= f when r < 0.
type rhsOp struct {
	i, r int32
	f    float64
}

// SolveFrom solves pp under the bounds L and U (nil: 0 and +Inf, as in a
// Problem) starting from b, the Basis of an optimal Result of a problem
// with the same C, A, Rel and B and possibly different bounds. It checks
// the bounds as Validate does — pp itself was validated by Prepare —
// refactors b against them, runs the dual simplex to primal feasibility
// and a primal cleanup to optimality. The outcome is Solve's — the same
// status and the same optimal objective up to tolerance, though possibly
// at another optimal vertex. When b is nil or unusable (singular, not dual
// feasible, holding an artificial) or the dual simplex hits its pivot cap,
// SolveFrom returns Solve's answer instead.
func (w *Workspace) SolveFrom(pp *Prepared, L, U []float64, b *Basis) (Result, error) {
	p := pp.p
	p.L, p.U = L, U
	if err := p.checkBounds(); err != nil {
		return Result{}, err
	}
	if r, ok := w.warm(pp, &p, b); ok {
		return r, nil
	}
	return solveCold(&p)
}

// grow returns b resized to n zeroed elements, reusing its storage.
func grow[E any](b []E, n int) []E {
	if cap(b) < n {
		return make([]E, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// reset sizes the workspace's simplex for an m-row problem with n
// structural columns and nCols-n slacks, all nonbasic at their lower bound.
// The tableau is sized but not cleared: the caller fills every entry.
func (w *Workspace) reset(m, n, nCols int) {
	s := &w.s
	s.m, s.n, s.nCols, s.artBase = m, n, nCols, nCols
	if cap(w.buf) < m*nCols {
		w.buf = make([]float64, m*nCols)
	}
	w.buf = w.buf[:m*nCols]
	if cap(s.T) < m {
		s.T = make([][]float64, m)
	}
	s.T = s.T[:m]
	for i := range s.T {
		s.T[i] = w.buf[i*nCols : (i+1)*nCols : (i+1)*nCols]
	}
	s.xB = grow(s.xB, m)
	s.basis = grow(s.basis, m)
	s.stat = grow(s.stat, nCols)
	s.ub = grow(s.ub, nCols)
	s.d = grow(s.d, nCols)
	s.cost = grow(s.cost, nCols)
	s.act, s.nz = s.act[:0], s.nz[:0]
	s.objVal, s.iters, s.bland, s.stall = 0, 0, false, 0
}

// warm is SolveFrom's warm path: p is pp's problem under the node's
// checked bounds. ok is false when the caller must solve cold instead.
func (w *Workspace) warm(pp *Prepared, p *Problem, b *Basis) (r Result, ok bool) {
	n, m, nCols := len(p.C), len(p.A), pp.nCols
	if b == nil || m == 0 || len(b.cols) != m || len(b.upper) != (n+63)/64 {
		return Result{}, false
	}
	w.reset(m, n, nCols)
	s := &w.s

	// Bounds (shifted so every lower bound is zero) and column statuses.
	for j := 0; j < n; j++ {
		s.ub[j] = p.upper(j) - p.lower(j)
	}
	for j := n; j < nCols; j++ {
		s.ub[j] = math.Inf(1)
	}
	for _, c := range b.cols {
		if c < 0 || int(c) >= nCols || s.stat[c] == isBasic {
			return Result{}, false
		}
		s.stat[c] = isBasic
	}
	for j := 0; j < n; j++ {
		// A column the new bounds fix (ub == 0) sits at its lower bound.
		if s.stat[j] != isBasic && b.upper[j/64]>>(j%64)&1 != 0 && s.ub[j] > 0 {
			if math.IsInf(s.ub[j], 1) {
				return Result{}, false
			}
			s.stat[j] = atUpper
		}
	}

	if w.fac.pp == pp && w.fac.b == b {
		copy(w.buf, w.fac.t)
		copy(s.basis, w.fac.basis)
	} else if !w.factor(pp, b) {
		return Result{}, false // singular
	}
	w.rhs(pp, p)
	s.replay(w.fac.ops)

	// Phase-2 costs; the basis must be dual feasible for the dual simplex.
	copy(s.cost[:n], p.C)
	s.computeReducedCosts()
	for _, j := range s.act {
		switch s.stat[j] {
		case atLower:
			if s.d[j] < -tolDual {
				return Result{}, false
			}
		case atUpper:
			if s.d[j] > tolDual {
				return Result{}, false
			}
		}
	}

	switch s.dual(m + nCols) {
	case Infeasible:
		return Result{Status: Infeasible, Iters: s.iters}, true
	case Optimal:
	default:
		return Result{}, false
	}
	if s.run(maxIters(m, nCols)) != Optimal {
		return Result{}, false
	}
	return s.optimum(p), true
}

// factor builds [A | slacks] from pp's nonzeros, refactors b into it and
// memoizes the result in w.fac. It reports false when b is singular for pp.
func (w *Workspace) factor(pp *Prepared, b *Basis) bool {
	s := &w.s
	n, m := s.n, s.m
	f := &w.fac
	f.pp, f.b = nil, nil
	clear(w.buf)
	w.used = grow(w.used, m)

	// A slack column is a unit column, so a basic slack already holds its
	// own row: the row is only negated on a >= row, making the slack's
	// entry +1.
	slack := n
	for i, rel := range pp.p.Rel {
		t := s.T[i]
		sign := 1.0
		if rel != EQ {
			if rel == GE {
				sign = -1
			}
			if s.stat[slack] == isBasic {
				s.basis[i] = slack
				w.used[i] = true
				t[slack] = 1
			} else {
				t[slack] = sign
				sign = 1
			}
			slack++
		}
		for k := pp.start[i]; k < pp.start[i+1]; k++ {
			t[pp.col[k]] = sign * pp.val[k]
		}
	}

	// Refactor the basic structurals: each takes the free row with its
	// largest entry (Gauss-Jordan with partial pivoting), in the order
	// the basis lists them.
	ops := f.ops[:0]
	for _, c := range b.cols {
		q := int(c)
		if q >= n {
			continue
		}
		r, big := -1, tolRefactor
		for i := 0; i < m; i++ {
			if a := math.Abs(s.T[i][q]); !w.used[i] && a > big {
				r, big = i, a
			}
		}
		if r < 0 {
			f.ops = ops
			return false
		}
		w.used[r] = true
		s.basis[r] = q
		ops = s.refactorPivot(r, q, ops)
	}

	f.pp, f.b, f.ops = pp, b, ops
	f.t = append(f.t[:0], w.buf...)
	f.basis = append(f.basis[:0], s.basis...)
	return true
}

// rhs sets the basic values as they stand before the refactor: the
// right-hand side of [A | slacks] with the lower bounds and the columns at
// their upper bound absorbed, negated on a >= row whose slack is basic.
// Replaying the refactor's row operations then yields the basic values.
// It walks pp's nonzeros; p is pp's problem under the node's bounds.
func (w *Workspace) rhs(pp *Prepared, p *Problem) {
	s := &w.s
	slack := s.n
	for i, rel := range p.Rel {
		sign := 1.0
		if rel != EQ {
			if rel == GE && s.stat[slack] == isBasic {
				sign = -1
			}
			slack++
		}
		rhs := p.B[i]
		for k := pp.start[i]; k < pp.start[i+1]; k++ {
			j := pp.col[k]
			v := p.lower(int(j))
			if s.stat[j] == atUpper {
				v += s.ub[j]
			}
			rhs -= pp.val[k] * v
		}
		s.xB[i] = sign * rhs
	}
}

// refactorPivot eliminates column q from every row but r over the full
// tableau width, and appends the same row operations on the basic values
// to ops for replay.
func (s *simplex) refactorPivot(r, q int, ops []rhsOp) []rhsOp {
	row := s.T[r]
	inv := 1 / row[q]
	nz := s.nz[:0]
	for j, v := range row {
		if v != 0 {
			row[j] = v * inv
			nz = append(nz, j)
		}
	}
	s.nz = nz
	row[q] = 1
	ops = append(ops, rhsOp{i: int32(r), r: -1, f: inv})
	for i := 0; i < s.m; i++ {
		f := s.T[i][q]
		if i == r || f == 0 {
			continue
		}
		ri := s.T[i]
		for _, j := range nz {
			ri[j] -= f * row[j]
		}
		ri[q] = 0
		ops = append(ops, rhsOp{i: int32(i), r: int32(r), f: f})
	}
	return ops
}

// replay applies a refactor's row operations to the basic values, in
// order, so they come out with the bits the elimination itself would give.
func (s *simplex) replay(ops []rhsOp) {
	xB := s.xB
	for _, op := range ops {
		if op.r < 0 {
			xB[op.i] *= op.f
		} else {
			xB[op.i] -= op.f * xB[op.r]
		}
	}
}

// dual runs the bounded dual simplex from a dual-feasible basis. Each
// pivot takes the basic column farthest outside its bounds to the bound it
// violates, entering the nonbasic column whose reduced cost reaches zero
// first (ties to the largest pivot). It returns Optimal once every basic
// value is within bounds, Infeasible when a violated row cannot be
// repaired by any nonbasic move, and IterLimit after limit pivots or when
// entries too small to pivot on, on bounded columns, could add up to the
// repair — the cold solve decides those.
func (s *simplex) dual(limit int) Status {
	for it := 0; ; it++ {
		r, target, worst := -1, 0.0, tolFeas
		for i := 0; i < s.m; i++ {
			v := s.xB[i]
			if -v > worst {
				r, target, worst = i, 0, -v
			} else if ub := s.ub[s.basis[i]]; v-ub > worst {
				r, target, worst = i, ub, v-ub
			}
		}
		if r < 0 {
			return Optimal
		}
		if it == limit {
			return IterLimit
		}

		// Row r reads x_B[r] = beta - sum_j T[r][j] x_j. g > 0 marks a
		// nonbasic column whose move off its bound pushes x_B[r] toward
		// target; g is the push per unit of move.
		rise := s.xB[r] < target
		row := s.T[r]
		q, best, bestG := -1, math.Inf(1), 0.0
		room := 0.0 // what bounded entries too small to pivot on could repair
		for _, j := range s.act {
			st := s.stat[j]
			if st == isBasic {
				continue
			}
			g := row[j]
			if st == atLower {
				g = -g
			}
			if !rise {
				g = -g
			}
			if g <= 0 {
				continue
			}
			if g <= tolPivot {
				// Like the primal ratio test, treat the entry as zero;
				// on a bounded column, keep count of what it could do.
				if !math.IsInf(s.ub[j], 1) {
					room += g * s.ub[j]
				}
				continue
			}
			dj := s.d[j]
			if st == atUpper {
				dj = -dj
			}
			ratio := math.Max(dj, 0) / g
			if ratio < best || (ratio == best && g > bestG) {
				q, best, bestG = j, ratio, g
			}
		}
		if q < 0 {
			if room >= worst-tolFeas {
				return IterLimit
			}
			return Infeasible
		}

		dx := (s.xB[r] - target) / row[q] // the move of x_q
		for i := 0; i < s.m; i++ {
			if f := s.T[i][q]; f != 0 {
				s.xB[i] -= f * dx
			}
		}
		newVal := dx
		if s.stat[q] == atUpper {
			newVal += s.ub[q]
		}
		s.pivot(r, q, newVal, !rise)
		s.iters++
	}
}
