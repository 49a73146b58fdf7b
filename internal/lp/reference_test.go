package lp

import "math"

// This file keeps the warm path as it was before the production one
// memoized its refactor, moved pivot onto the dense axpy kernel and read A
// through a Prepared problem's nonzeros: every warm solve validates the
// whole problem, scans the dense A to build [A | slacks] and its right-hand
// side, and refactors the basis from scratch, and every pivot eliminates
// over the active nonzero columns of the pivot row only. refSolveFrom is
// the oracle the differential tests hold Workspace.SolveFrom to, bit for
// bit.

// refSimplex is a simplex whose run, step, pivot, dual and refactorPivot
// are the reference versions below; everything else (pricing, reduced
// costs, the optimum) is the production code.
type refSimplex struct {
	simplex
}

// refSolveFrom is SolveFrom on the reference path: the refactor-every-solve
// warm start, and the index-pivot cold solve as its fallback.
func refSolveFrom(p *Problem, b *Basis) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if r, ok := refWarm(p, b); ok {
		return r, nil
	}
	return refSolveCold(p)
}

// refSolveCold is solveCold with the reference pivot.
func refSolveCold(p *Problem) (Result, error) {
	n := len(p.C)
	m := len(p.A)

	// Trivial case: no constraints — each variable goes to its cheap bound.
	if m == 0 {
		x := make([]float64, n)
		obj := 0.0
		for j := 0; j < n; j++ {
			switch {
			case p.C[j] > 0:
				x[j] = p.lower(j)
			case p.C[j] < 0:
				if math.IsInf(p.upper(j), 1) {
					return Result{Status: Unbounded}, nil
				}
				x[j] = p.upper(j)
			default:
				x[j] = p.lower(j)
			}
			obj += p.C[j] * x[j]
		}
		return Result{Status: Optimal, X: x, Obj: obj}, nil
	}

	s := &refSimplex{*newSimplex(p)}

	// Phase 1: minimize the artificial sum.
	if s.artBase < s.nCols {
		s.setPhase1Cost()
		st := s.run(maxIters(m, s.nCols))
		if st == IterLimit {
			return Result{Status: IterLimit, Iters: s.iters}, nil
		}
		if s.objVal > tolFeas {
			return Result{Status: Infeasible, Iters: s.iters}, nil
		}
		// Freeze artificials at zero so phase 2 cannot reuse them.
		for j := s.artBase; j < s.nCols; j++ {
			s.ub[j] = 0
		}
	}

	// Phase 2: the real objective.
	s.setPhase2Cost(p)
	st := s.run(maxIters(m, s.nCols))
	if st != Optimal {
		return Result{Status: st, Iters: s.iters}, nil
	}

	return s.optimum(p), nil
}

// refWarm is the warm path on a validated problem, on a fresh simplex.
func refWarm(p *Problem, b *Basis) (r Result, ok bool) {
	n, m := len(p.C), len(p.A)
	if b == nil || m == 0 || len(b.cols) != m || len(b.upper) != (n+63)/64 {
		return Result{}, false
	}
	nCols := n
	for _, rel := range p.Rel {
		if rel != EQ {
			nCols++
		}
	}
	s := &refSimplex{simplex{
		m: m, n: n, nCols: nCols, artBase: nCols,
		T:     make([][]float64, m),
		xB:    make([]float64, m),
		basis: make([]int, m),
		stat:  make([]varStatus, nCols),
		ub:    make([]float64, nCols),
		d:     make([]float64, nCols),
		cost:  make([]float64, nCols),
	}}
	buf := make([]float64, m*nCols)
	for i := range s.T {
		s.T[i] = buf[i*nCols : (i+1)*nCols : (i+1)*nCols]
	}
	used := make([]bool, m)

	// Bounds (shifted so every lower bound is zero) and column statuses.
	for j := 0; j < n; j++ {
		s.ub[j] = p.upper(j) - p.lower(j)
		if s.ub[j] < 0 {
			return Result{}, false // Solve reports the inconsistent bounds
		}
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

	// [A | slacks]; the right-hand side absorbs the lower bounds and the
	// columns at their upper bound, leaving the basic values once the
	// basis is factored in. A slack column is a unit column, so a basic
	// slack already holds its own row: the row is only negated on a >=
	// row, making the slack's entry +1.
	slack := n
	for i, a := range p.A {
		t := s.T[i]
		sign := 1.0
		if rel := p.Rel[i]; rel != EQ {
			if rel == GE {
				sign = -1
			}
			if s.stat[slack] == isBasic {
				s.basis[i] = slack
				used[i] = true
				t[slack] = 1
			} else {
				t[slack] = sign
				sign = 1
			}
			slack++
		}
		rhs := p.B[i]
		for j, aij := range a {
			if aij == 0 {
				continue
			}
			t[j] = sign * aij
			v := p.lower(j)
			if s.stat[j] == atUpper {
				v += s.ub[j]
			}
			rhs -= aij * v
		}
		s.xB[i] = sign * rhs
	}

	// Refactor the basic structurals: each takes the free row with its
	// largest entry (Gauss-Jordan with partial pivoting), in the order
	// the basis lists them.
	for _, c := range b.cols {
		q := int(c)
		if q >= n {
			continue
		}
		r, big := -1, tolRefactor
		for i := 0; i < m; i++ {
			if a := math.Abs(s.T[i][q]); !used[i] && a > big {
				r, big = i, a
			}
		}
		if r < 0 {
			return Result{}, false // singular for these bounds
		}
		used[r] = true
		s.basis[r] = q
		s.refactorPivot(r, q)
	}

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

// refactorPivot eliminates column q from every row but r over the full
// tableau width, carrying the basic values along.
func (s *refSimplex) refactorPivot(r, q int) {
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
	s.xB[r] *= inv
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
		s.xB[i] -= f * s.xB[r]
	}
}

// run iterates the bounded-variable simplex until optimality or a limit.
func (s *refSimplex) run(limit int) Status {
	for iter := 0; iter < limit; iter++ {
		q := s.price()
		if q < 0 {
			return Optimal
		}
		st := s.step(q)
		if st != Optimal {
			return st
		}
		s.iters++
	}
	return IterLimit
}

// step moves the entering variable q as far as its own bound or a basic
// variable's bound allows, then flips or pivots.
func (s *refSimplex) step(q int) Status {
	dir := 1.0
	if s.stat[q] == atUpper {
		dir = -1
	}

	// Ratio test: limit on the step length t >= 0.
	tMax := s.ub[q] // bound-to-bound flip distance
	leave := -1
	leaveToUpper := false
	for i := 0; i < s.m; i++ {
		y := dir * s.T[i][q]
		var lim float64
		var toUpper bool
		switch {
		case y > tolPivot:
			lim = s.xB[i] / y // basic falls to its lower bound (0)
		case y < -tolPivot:
			ubB := s.ub[s.basis[i]]
			if math.IsInf(ubB, 1) {
				continue
			}
			lim = (ubB - s.xB[i]) / (-y) // basic rises to its upper bound
			toUpper = true
		default:
			continue
		}
		if lim < 0 {
			lim = 0
		}
		if lim < tMax-tolPivot || (lim < tMax+tolPivot && leave >= 0 && s.bland && s.basis[i] < s.basis[leave]) {
			tMax = lim
			leave = i
			leaveToUpper = toUpper
		}
	}

	if math.IsInf(tMax, 1) {
		return Unbounded
	}

	// Objective change.
	delta := s.d[q] * dir * tMax
	if delta > -1e-12 {
		s.stall++
		if s.stall > 2*(s.m+s.nCols) {
			s.bland = true
		}
	} else {
		s.stall = 0
	}
	s.objVal += delta

	// Update basic values.
	for i := 0; i < s.m; i++ {
		s.xB[i] -= dir * s.T[i][q] * tMax
	}

	if leave < 0 {
		// Bound flip: q jumps to its other bound, basis unchanged.
		if s.stat[q] == atLower {
			s.stat[q] = atUpper
		} else {
			s.stat[q] = atLower
		}
		return Optimal
	}

	// Pivot: q enters the basis at its new value, basis[leave] exits.
	newVal := tMax
	if s.stat[q] == atUpper {
		newVal = s.ub[q] - tMax
	}
	s.pivot(leave, q, newVal, leaveToUpper)
	return Optimal
}

// pivot makes column q basic in row leave at value newVal. The column
// leaving goes nonbasic at its upper bound when leaveToUpper, at its lower
// bound otherwise. Basic values other than the entering one must already be
// updated for the move.
func (s *refSimplex) pivot(leave, q int, newVal float64, leaveToUpper bool) {
	out := s.basis[leave]
	if leaveToUpper {
		s.stat[out] = atUpper
	} else {
		s.stat[out] = atLower
	}
	s.stat[q] = isBasic
	s.basis[leave] = q
	s.xB[leave] = newVal

	// Gaussian elimination on the tableau and the reduced-cost row, over
	// the active columns only (frozen columns are never read again).
	piv := s.T[leave][q]
	row := s.T[leave]
	inv := 1 / piv
	nz := s.nz[:0] // active nonzeros of the normalized pivot row
	for _, j := range s.act {
		if row[j] == 0 {
			continue
		}
		row[j] *= inv
		nz = append(nz, j)
	}
	s.nz = nz
	for i := 0; i < s.m; i++ {
		if i == leave {
			continue
		}
		f := s.T[i][q]
		if f == 0 {
			continue
		}
		ri := s.T[i]
		for _, j := range nz {
			ri[j] -= f * row[j]
		}
		ri[q] = 0 // exact zero against round-off
	}
	f := s.d[q]
	if f != 0 {
		for _, j := range nz {
			s.d[j] -= f * row[j]
		}
		s.d[q] = 0
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
func (s *refSimplex) dual(limit int) Status {
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

// solveFrom prepares p and solves it from b on a fresh workspace.
func solveFrom(p *Problem, b *Basis) (Result, error) {
	pp, err := Prepare(p)
	if err != nil {
		return Result{}, err
	}
	var w Workspace
	return w.SolveFrom(pp, p.L, p.U, b)
}
