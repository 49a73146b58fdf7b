// Package lp is a dense linear-programming solver: a two-phase primal
// simplex with bounded variables and Bland anti-cycling. It plays the role
// of lp_solve in the paper's flow, as the relaxation engine under the
// branch-and-bound ILP solver.
//
// Problems are stated as
//
//	minimize    C.x
//	subject to  A x (<=|>=|=) B,   L <= x <= U
//
// Variable bounds are handled implicitly by the simplex (nonbasic variables
// may sit at either bound), which keeps the tableau at the constraint count
// rather than adding a row per bound — essential for the FBB instances whose
// x_ij variables are all bounded binaries in the relaxation.
//
// Every optimal Result carries its Basis in a layout that does not depend on
// the bounds or the right-hand side. SolveFrom re-solves a problem that
// differs from the one a basis came from only in its variable bounds — a
// branch-and-bound child — by refactoring that basis and running a dual
// simplex: a bound change keeps an optimal basis dual feasible, so a child
// typically needs a handful of dual pivots where a cold solve needs a full
// phase 1. Whenever the basis is unusable (singular, dual infeasible, an
// artificial left basic, an iteration cap) SolveFrom falls back to Solve;
// the decision depends only on the problem and the basis, so SolveFrom is
// as deterministic as Solve. Solve stays the reference: the differential
// tests hold SolveFrom to it.
//
// The refactor depends only on A, the relations and the basis, so a
// Workspace memoizes the last one it did: sibling nodes and strong-branching
// fans, which warm-start from one parent basis, copy the factored tableau
// and replay its row operations on their own right-hand side, with the
// bits a fresh refactor gives. Pivots eliminate with one dense row kernel,
// y -= f*x over the whole tableau width (an AVX2 assembly loop on amd64,
// rounding exactly like the scalar statement).
//
// A branch-and-bound search solves one problem under many bounds, so it
// prepares the problem once. Prepare runs the full Validate a single time
// and records A's nonzeros by row and again by column. The refactor fills
// [A | slacks] from the rows; a node's right-hand side starts from B and
// subtracts only the columns its bounds shift off zero, read down the
// columns, with the bits the row-by-row sum over every nonzero gives (up
// to a zero's sign). The memo keeps the phase-2 reduced costs next to the
// factored tableau, since they too depend only on the problem and the
// basis. The Prepared form is immutable and shared by all of a search's
// goroutines; each node then passes only its bounds to
// Workspace.SolveFrom, which checks those bounds — lengths, finiteness, a
// nonempty interval — and nothing else.
package lp

import (
	"fmt"
	"math"
	"slices"
)

// Rel is a constraint relation.
type Rel uint8

// Constraint relations.
const (
	LE Rel = iota // <=
	GE            // >=
	EQ            // =
)

// Status reports the outcome of a solve.
type Status uint8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Problem is an LP instance. L and U may be nil (defaults: 0 and +Inf).
type Problem struct {
	C   []float64
	A   [][]float64
	Rel []Rel
	B   []float64
	L   []float64
	U   []float64
}

// Result is a solved LP.
type Result struct {
	Status Status
	// X is the optimal point (valid when Status == Optimal).
	X []float64
	// Obj is C.X.
	Obj float64
	// Iters counts simplex pivots across both phases (for SolveFrom, the
	// dual and cleanup pivots; refactoring the start basis is not counted).
	Iters int
	// Basis is the optimal basis (nil unless Status == Optimal), the warm
	// start SolveFrom takes for a problem that differs only in bounds.
	Basis *Basis
}

const (
	tolPivot = 1e-9
	tolCost  = 1e-9
	tolFeas  = 1e-7
)

// InputError reports a malformed Problem: inconsistent dimensions, a
// non-finite coefficient or right-hand side, an unusable bound or an
// unknown relation. Solving such a problem would return a wrong answer
// rather than fail, so Validate rejects it up front.
type InputError struct {
	msg string
}

func (e *InputError) Error() string { return "lp: " + e.msg }

func inputErrorf(format string, args ...any) error {
	return &InputError{msg: fmt.Sprintf(format, args...)}
}

// finite reports whether v is neither NaN nor infinite (v-v is NaN
// exactly then), one subtraction per coefficient on the per-node path.
func finite(v float64) bool { return v-v == 0 }

// Validate checks dimensional consistency, that C, A and B are finite,
// that every relation is known, and that every bound interval is a
// nonempty [finite, finite or +Inf]: lo <= hi, with no tolerance. Every
// failure is an *InputError.
func (p *Problem) Validate() error {
	n := len(p.C)
	if len(p.A) != len(p.B) || len(p.A) != len(p.Rel) {
		return inputErrorf("%d rows, %d rhs, %d relations", len(p.A), len(p.B), len(p.Rel))
	}
	for j, c := range p.C {
		if !finite(c) {
			return inputErrorf("cost %d is %g", j, c)
		}
	}
	for i, row := range p.A {
		if len(row) != n {
			return inputErrorf("row %d has %d coefficients, want %d", i, len(row), n)
		}
		for j, a := range row {
			if !finite(a) {
				return inputErrorf("row %d coefficient %d is %g", i, j, a)
			}
		}
		if !finite(p.B[i]) {
			return inputErrorf("row %d right-hand side is %g", i, p.B[i])
		}
		if p.Rel[i] > EQ {
			return inputErrorf("row %d has unknown relation %d", i, p.Rel[i])
		}
	}
	return p.checkBounds()
}

// checkBounds is Validate's check of L and U alone.
func (p *Problem) checkBounds() error {
	n := len(p.C)
	if p.L != nil && len(p.L) != n {
		return inputErrorf("L length %d, want %d", len(p.L), n)
	}
	if p.U != nil && len(p.U) != n {
		return inputErrorf("U length %d, want %d", len(p.U), n)
	}
	for j := 0; j < n; j++ {
		lo, hi := p.lower(j), p.upper(j)
		if !finite(lo) {
			return inputErrorf("variable %d has lower bound %g", j, lo)
		}
		if math.IsNaN(hi) {
			return inputErrorf("variable %d has upper bound %g", j, hi)
		}
		if lo > hi {
			return inputErrorf("variable %d has empty bound interval [%g, %g]", j, lo, hi)
		}
	}
	return nil
}

// Prepared is a validated Problem in the form every branch-and-bound node
// solves against: it references the Problem's C, A, Rel and B, and holds
// A's nonzeros twice — by row (compressed sparse rows, columns ascending),
// which the refactor fills the tableau from, and by column (compressed
// sparse columns, rows ascending), which a node's right-hand side reads for
// the columns its bounds shift — and the slack count. A Prepared never
// changes once built, so any number of goroutines may solve against it at
// once, each with its own Workspace. The C, A, Rel and B it references
// must not change after Prepare.
type Prepared struct {
	p      Problem   // C, A, Rel and B; L and U are each node's own
	start  []int32   // row i's nonzeros are col/val[start[i]:start[i+1]]
	col    []int32   // their columns
	val    []float64 // their values
	cstart []int32   // column j's nonzeros are row/cval[cstart[j]:cstart[j+1]]
	row    []int32   // their rows
	cval   []float64 // their values
	nCols  int       // structural columns plus one slack per non-EQ row
}

// Prepare validates p once, as Validate does, and returns its prepared
// form; L and U are not part of it (each node solve passes its own).
func Prepare(p *Problem) (*Prepared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.C)
	pp := &Prepared{
		p:      Problem{C: p.C, A: p.A, Rel: p.Rel, B: p.B},
		start:  make([]int32, 1, len(p.A)+1),
		cstart: make([]int32, n+1),
		nCols:  n,
	}
	for i, row := range p.A {
		for j, a := range row {
			if a != 0 {
				pp.col = append(pp.col, int32(j))
				pp.val = append(pp.val, a)
				pp.cstart[j+1]++
			}
		}
		pp.start = append(pp.start, int32(len(pp.col)))
		if p.Rel[i] != EQ {
			pp.nCols++
		}
	}

	// The column form: count, prefix-sum, then scatter the rows in
	// ascending order, so each column lists its rows ascending.
	for j := 0; j < n; j++ {
		pp.cstart[j+1] += pp.cstart[j]
	}
	pp.row = make([]int32, len(pp.col))
	pp.cval = make([]float64, len(pp.col))
	next := slices.Clone(pp.cstart[:n])
	for i := range p.A {
		for k := pp.start[i]; k < pp.start[i+1]; k++ {
			j := pp.col[k]
			pp.row[next[j]], pp.cval[next[j]] = int32(i), pp.val[k]
			next[j]++
		}
	}
	return pp, nil
}

func (p *Problem) lower(j int) float64 {
	if p.L == nil {
		return 0
	}
	return p.L[j]
}

func (p *Problem) upper(j int) float64 {
	if p.U == nil {
		return math.Inf(1)
	}
	return p.U[j]
}

type varStatus uint8

const (
	atLower varStatus = iota
	atUpper
	isBasic
)

// simplex holds the working state. All variables are shifted so their lower
// bound is zero; column order is [structural | slacks | artificials].
type simplex struct {
	m, n    int // rows, structural count
	nCols   int
	T       [][]float64 // m x nCols tableau (B^-1 A)
	xB      []float64   // basic variable values
	basis   []int       // basic column per row
	stat    []varStatus
	ub      []float64 // shifted upper bounds per column
	d       []float64 // reduced costs
	cost    []float64 // phase cost vector
	act     []int     // columns with ub > 0, ascending (see rebuildActive)
	nz      []int     // refactor scratch: nonzeros of the pivot row
	objVal  float64
	artBase int
	iters   int
	bland   bool
	stall   int
}

// Solve optimizes the problem from scratch with a two-phase primal simplex.
func Solve(p *Problem) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	return solveCold(p)
}

// solveCold is Solve on a validated problem.
func solveCold(p *Problem) (Result, error) {
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

	s := newSimplex(p)

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

// optimum packages the current (optimal) vertex in original coordinates,
// with its basis.
func (s *simplex) optimum(p *Problem) Result {
	n := s.n
	x := make([]float64, n) // shifted values first
	for i, bj := range s.basis {
		if bj < n {
			x[bj] = s.xB[i]
		}
	}
	for j := 0; j < n; j++ {
		if s.stat[j] == atUpper {
			x[j] = s.ub[j]
		}
		x[j] = p.lower(j) + x[j]
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.C[j] * x[j]
	}
	return Result{Status: Optimal, X: x, Obj: obj, Iters: s.iters, Basis: s.saveBasis()}
}

func maxIters(m, n int) int { return 200*(m+n) + 20000 }

// newSimplex builds the initial tableau of a validated problem: slack basis
// where possible, artificial variables for >= and = rows.
func newSimplex(p *Problem) *simplex {
	n := len(p.C)
	m := len(p.A)

	// Shift x by L and normalize rows to b >= 0.
	type rowSpec struct {
		a   []float64
		b   float64
		rel Rel
	}
	rows := make([]rowSpec, m)
	for i := 0; i < m; i++ {
		a := make([]float64, n)
		copy(a, p.A[i])
		b := p.B[i]
		for j := 0; j < n; j++ {
			l := p.lower(j)
			if l != 0 {
				b -= a[j] * l
			}
		}
		rel := p.Rel[i]
		if b < 0 {
			for j := range a {
				a[j] = -a[j]
			}
			b = -b
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		rows[i] = rowSpec{a: a, b: b, rel: rel}
	}

	nSlack := 0
	nArt := 0
	for _, r := range rows {
		if r.rel != EQ {
			nSlack++
		}
		if r.rel != LE {
			nArt++
		}
	}
	nCols := n + nSlack + nArt
	s := &simplex{
		m:       m,
		n:       n,
		nCols:   nCols,
		T:       make([][]float64, m),
		xB:      make([]float64, m),
		basis:   make([]int, m),
		stat:    make([]varStatus, nCols),
		ub:      make([]float64, nCols),
		d:       make([]float64, nCols),
		cost:    make([]float64, nCols),
		artBase: n + nSlack,
	}
	for j := 0; j < n; j++ {
		s.ub[j] = p.upper(j) - p.lower(j) // >= 0: Validate ordered the bounds
	}
	for j := n; j < nCols; j++ {
		s.ub[j] = math.Inf(1)
	}

	slack := n
	art := s.artBase
	for i, r := range rows {
		t := make([]float64, nCols)
		copy(t, r.a)
		switch r.rel {
		case LE:
			t[slack] = 1
			s.basis[i] = slack
			slack++
		case GE:
			t[slack] = -1
			slack++
			t[art] = 1
			s.basis[i] = art
			art++
		case EQ:
			t[art] = 1
			s.basis[i] = art
			art++
		}
		s.T[i] = t
		s.xB[i] = r.b
	}
	for i := range s.basis {
		s.stat[s.basis[i]] = isBasic
	}
	return s
}

// value returns the current value of column j in shifted coordinates.
func (s *simplex) value(j int) float64 {
	switch s.stat[j] {
	case atLower:
		return 0
	case atUpper:
		return s.ub[j]
	}
	for i, bj := range s.basis {
		if bj == j {
			return s.xB[i]
		}
	}
	return 0
}

func (s *simplex) setPhase1Cost() {
	for j := range s.cost {
		s.cost[j] = 0
	}
	for j := s.artBase; j < s.nCols; j++ {
		s.cost[j] = 1
	}
	s.computeReducedCosts()
	s.computeObjective()
}

func (s *simplex) setPhase2Cost(p *Problem) {
	for j := range s.cost {
		s.cost[j] = 0
	}
	copy(s.cost[:s.n], p.C)
	s.computeReducedCosts()
	s.computeObjective()
}

// rebuildActive recollects the columns with room to move (ub > 0). A frozen
// column — a variable fixed by its bounds, or an artificial zeroed after
// phase 1 — can never be priced into the basis again, so nothing ever reads
// its tableau entries or reduced cost: pricing, the dual ratio test and the
// pivot row's normalization skip it, and the eliminations may leave it
// stale. Called at each phase start, after any freezing, so the list is
// exact for the whole phase.
func (s *simplex) rebuildActive() {
	s.act = s.act[:0]
	for j := 0; j < s.nCols; j++ {
		if s.ub[j] > 0 {
			s.act = append(s.act, j)
		}
	}
}

// computeReducedCosts rebuilds d = c - c_B * T from scratch (done at each
// phase start) and resets the anti-cycling state.
func (s *simplex) computeReducedCosts() {
	s.rebuildActive()
	for _, j := range s.act {
		s.d[j] = s.cost[j]
	}
	for i := 0; i < s.m; i++ {
		cb := s.cost[s.basis[i]]
		if cb == 0 {
			continue
		}
		row := s.T[i]
		for _, j := range s.act {
			s.d[j] -= cb * row[j]
		}
	}
	s.bland = false
	s.stall = 0
}

// computeObjective recomputes the phase objective from the current vertex.
func (s *simplex) computeObjective() {
	obj := 0.0
	for j := 0; j < s.nCols; j++ {
		obj += s.cost[j] * s.value(j)
	}
	s.objVal = obj
}

// run iterates the bounded-variable simplex until optimality or a limit.
func (s *simplex) run(limit int) Status {
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

// price selects the entering column, or -1 at optimality. A nonbasic column
// improves the objective when it is at its lower bound with a negative
// reduced cost, or at its upper bound with a positive one.
func (s *simplex) price() int {
	best, bestScore := -1, tolCost
	for _, j := range s.act {
		if s.stat[j] == isBasic {
			continue
		}
		var score float64
		switch s.stat[j] {
		case atLower:
			score = -s.d[j]
		case atUpper:
			score = s.d[j]
		}
		if score <= tolCost {
			continue
		}
		if s.bland {
			return j
		}
		if score > bestScore {
			bestScore = score
			best = j
		}
	}
	return best
}

// step moves the entering variable q as far as its own bound or a basic
// variable's bound allows, then flips or pivots.
func (s *simplex) step(q int) Status {
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
func (s *simplex) pivot(leave, q int, newVal float64, leaveToUpper bool) {
	out := s.basis[leave]
	if leaveToUpper {
		s.stat[out] = atUpper
	} else {
		s.stat[out] = atLower
	}
	s.stat[q] = isBasic
	s.basis[leave] = q
	s.xB[leave] = newVal

	// Gaussian elimination on the tableau and the reduced-cost row. The
	// pivot row is normalized over its active nonzeros; every other row
	// takes one dense axpy over the whole width. Only the active nonzero
	// columns of the pivot row need the update. Elsewhere it subtracts a
	// zero, which at most turns a -0 into +0 (a zero's sign never reaches
	// a result), or writes a frozen column, which is never read again.
	row := s.T[leave]
	inv := 1 / row[q]
	for _, j := range s.act {
		if row[j] != 0 {
			row[j] *= inv
		}
	}
	for i := 0; i < s.m; i++ {
		if i == leave {
			continue
		}
		ri := s.T[i]
		if f := ri[q]; f != 0 {
			axpy(ri, row, f)
			ri[q] = 0 // exact zero against round-off
		}
	}
	if f := s.d[q]; f != 0 {
		axpy(s.d, row, f)
		s.d[q] = 0
	}
}
