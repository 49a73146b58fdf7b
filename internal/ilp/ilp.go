// Package ilp solves (mixed) integer linear programs by branch and bound
// over the lp simplex. It provides what the paper used lp_solve for: the
// exact FBB allocation. The search is serial: it branches by pseudo-costs
// initialized by strong branching, and solves every node relaxation in one
// fixed order — best bound first — so the result (incumbent, objective,
// status, node count) is a function of the model and the options alone.
// Callers that want parallelism solve independent models concurrently.
// Solve validates and prepares the model once (lp.Prepare); every node then
// solves that one shared, immutable form under its own bounds
// (lp.Workspace.SolveFrom). The root relaxation is solved cold; every other
// node warm-starts from its parent's optimal basis, which keeps each
// relaxation a pure function of the node. Like the paper's runs, where the
// ILP "did not converge in a specified amount of time" on the two largest
// designs, the solver takes a node budget and reports the best incumbent
// with its proven bound when the budget expires; the budget is counted in
// solved nodes, never wall clock, so truncation is deterministic too.
package ilp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/lp"
)

// Model is an ILP: an LP plus integrality flags per variable.
type Model struct {
	lp.Problem
	// Integer marks the integrality-constrained variables; nil means all.
	Integer []bool
}

// Status reports the outcome.
type Status uint8

// Outcomes of Solve.
const (
	// OptimalProven: the incumbent is optimal.
	OptimalProven Status = iota
	// FeasibleBudget: a budget expired; the incumbent is feasible but not
	// proven optimal (Result.BoundObj tells how far it could be).
	FeasibleBudget
	// InfeasibleProven: no integer point satisfies the constraints.
	InfeasibleProven
	// NoSolution: a budget expired before any integer solution was found.
	NoSolution
	// RelaxUnbounded: the LP relaxation is unbounded.
	RelaxUnbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case OptimalProven:
		return "optimal"
	case FeasibleBudget:
		return "feasible(budget)"
	case InfeasibleProven:
		return "infeasible"
	case NoSolution:
		return "no-solution(budget)"
	case RelaxUnbounded:
		return "unbounded"
	}
	return "unknown"
}

// Options tune the search.
type Options struct {
	// NodeLimit bounds solved branch-and-bound nodes (0 = 1<<20). Node
	// budgets are the deterministic truncation mechanism: the same limit
	// solves the same tree.
	NodeLimit int
	// WarmX, when non-nil, primes the incumbent (e.g. with a heuristic
	// solution). It must be a feasible point of the model: within the
	// bounds, integral on the integer columns and meeting every row, each
	// to within 1e-6 — or Solve returns an error. Solve prices it itself.
	WarmX []float64
}

// Result of a solve.
type Result struct {
	Status Status
	// X and Obj describe the incumbent (valid unless NoSolution).
	X   []float64
	Obj float64
	// BoundObj is the proven lower bound on the optimum.
	BoundObj float64
	// Nodes counts solved branch-and-bound nodes.
	Nodes int
	// StrongLPs counts the strong-branching LP solves spent on
	// reliability initialization (these are not part of Nodes).
	StrongLPs int
}

const intTol = 1e-6

// Solve runs branch and bound.
func Solve(m *Model, opts Options) (Result, error) {
	pp, err := lp.Prepare(&m.Problem)
	if err != nil {
		return Result{}, err
	}
	n := len(m.C)
	isInt := m.Integer
	if isInt == nil {
		isInt = make([]bool, n)
		for j := range isInt {
			isInt[j] = true
		}
	} else if len(isInt) != n {
		return Result{}, errors.New("ilp: Integer length mismatch")
	}

	// The search applies branching fixes to explicit bound arrays.
	sm := &Model{Problem: m.Problem, Integer: isInt}
	sm.L = make([]float64, n)
	sm.U = make([]float64, n)
	for j := 0; j < n; j++ {
		sm.L[j] = lowerOf(&m.Problem, j)
		sm.U[j] = upperOf(&m.Problem, j)
	}

	res := Result{Obj: math.Inf(1), BoundObj: math.Inf(-1)}
	if opts.WarmX != nil {
		obj, err := sm.warmObjective(opts.WarmX)
		if err != nil {
			return Result{}, err
		}
		res.Obj = obj
		res.X = append([]float64(nil), opts.WarmX...)
	}

	nodeLimit := opts.NodeLimit
	if nodeLimit <= 0 {
		nodeLimit = 1 << 20
	}
	sr := &search{m: sm, pp: pp, isInt: isInt, pc: newPseudoCost(n)}
	if err := sr.run(&res, nodeLimit); err != nil {
		return Result{}, err
	}
	return res, nil
}

// warmObjective checks that x is a feasible point of m, whose bounds are
// materialized — within them, integral on the integer columns and meeting
// every row, each to intTol — and returns its objective, summed in column
// order.
func (m *Model) warmObjective(x []float64) (float64, error) {
	if len(x) != len(m.C) {
		return 0, fmt.Errorf("ilp: WarmX length %d, want %d", len(x), len(m.C))
	}
	obj := 0.0
	for j, v := range x {
		if !(v >= m.L[j]-intTol && v <= m.U[j]+intTol) {
			return 0, fmt.Errorf("ilp: WarmX[%d] = %v outside [%v, %v]", j, v, m.L[j], m.U[j])
		}
		if m.Integer[j] && math.Abs(v-math.Round(v)) > intTol {
			return 0, fmt.Errorf("ilp: WarmX[%d] = %v is fractional on an integer column", j, v)
		}
		obj += m.C[j] * v
	}
	for i, row := range m.A {
		act := 0.0
		for j, a := range row {
			act += a * x[j]
		}
		viol := math.Abs(act - m.B[i])
		switch m.Rel[i] {
		case lp.LE:
			viol = act - m.B[i]
		case lp.GE:
			viol = m.B[i] - act
		}
		if !(viol <= intTol) {
			return 0, fmt.Errorf("ilp: WarmX violates row %d by %v", i, viol)
		}
	}
	return obj, nil
}

func lowerOf(p *lp.Problem, j int) float64 {
	if p.L == nil {
		return 0
	}
	return p.L[j]
}

func upperOf(p *lp.Problem, j int) float64 {
	if p.U == nil {
		return math.Inf(1)
	}
	return p.U[j]
}

// Gap returns the relative optimality gap of a result (0 when proven).
func (r *Result) Gap() float64 {
	if r.Status == OptimalProven {
		return 0
	}
	if math.IsInf(r.Obj, 1) || math.IsInf(r.BoundObj, -1) {
		return math.Inf(1)
	}
	den := math.Abs(r.Obj)
	if den < 1e-12 {
		den = 1e-12
	}
	return (r.Obj - r.BoundObj) / den
}
