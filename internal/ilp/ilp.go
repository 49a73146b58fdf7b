// Package ilp solves (mixed) integer linear programs by branch and bound
// over the lp simplex. It provides what the paper used lp_solve for: the
// exact FBB allocation. The engine runs a pluggable branching rule
// (pseudo-cost with reliability initialization, or most-fractional) inside
// a deterministically parallel tree search: worker goroutines speculatively
// solve node relaxations ahead of a sequential commit order, so the result
// — incumbent, objective, status, node count — is byte-identical at any
// worker count. Solve validates and prepares the model once (lp.Prepare);
// every node then solves that one shared, immutable form under its own
// bounds (lp.Workspace.SolveFrom). The root relaxation is solved cold;
// every other node warm-starts from its parent's optimal basis, which keeps
// each relaxation a pure function of the node. Like the paper's runs, where
// the ILP "did not converge in a specified amount of time" on the two
// largest designs, the solver takes a node budget and reports the best
// incumbent with its proven bound when the budget expires; the budget is
// counted in committed nodes, never wall clock, so truncation is
// deterministic too.
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
	// NodeLimit bounds committed branch-and-bound nodes (0 = 1<<20).
	// Node budgets are the deterministic truncation mechanism: the same
	// limit commits the same tree at any Workers count.
	NodeLimit int
	// Workers is the tree-search parallelism (0 = GOMAXPROCS). Workers
	// speculatively solve node relaxations ahead of the deterministic
	// commit order; the committed result is identical at any value.
	Workers int
	// Branching selects the branching rule: "pseudocost" (default, with
	// reliability initialization by strong branching) or "mostfrac".
	Branching string
	// WarmObj primes the incumbent objective (e.g. from a heuristic);
	// use with WarmX. Zero values mean no warm start.
	WarmObj float64
	WarmX   []float64
	// HasWarm marks WarmObj/WarmX as valid.
	HasWarm bool
}

// Result of a solve.
type Result struct {
	Status Status
	// X and Obj describe the incumbent (valid unless NoSolution).
	X   []float64
	Obj float64
	// BoundObj is the proven lower bound on the optimum.
	BoundObj float64
	// Nodes counts committed branch-and-bound nodes. Under a NodeLimit
	// budget it is identical at any Workers count.
	Nodes int
	// Branching echoes the rule that ran; StrongLPs counts the strong-
	// branching LP solves spent on reliability initialization (these are
	// not part of Nodes).
	Branching string
	StrongLPs int
}

const intTol = 1e-6

// Solve runs a deterministic parallel branch and bound.
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

	if opts.HasWarm && len(opts.WarmX) != n {
		return Result{}, fmt.Errorf("ilp: WarmX length %d, want %d", len(opts.WarmX), n)
	}

	nodeLimit := opts.NodeLimit
	if nodeLimit <= 0 {
		nodeLimit = 1 << 20
	}

	res := Result{Obj: math.Inf(1), BoundObj: math.Inf(-1)}
	if opts.HasWarm {
		res.Obj = opts.WarmObj
		res.X = append([]float64(nil), opts.WarmX...)
	}

	br, err := newBrancher(opts.Branching, n)
	if err != nil {
		return Result{}, err
	}
	res.Branching = br.name()

	// The search applies branching fixes to explicit bound arrays.
	sm := &Model{Problem: m.Problem, Integer: isInt}
	sm.L = make([]float64, n)
	sm.U = make([]float64, n)
	for j := 0; j < n; j++ {
		sm.L[j] = lowerOf(&m.Problem, j)
		sm.U[j] = upperOf(&m.Problem, j)
	}
	sr := newSearch(sm, pp, br, opts.Workers)
	if err := sr.run(&res, nodeLimit); err != nil {
		return Result{}, err
	}
	return res, nil
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
