package core

import (
	"fmt"

	"repro/internal/ilp"
	"repro/internal/lp"
)

// ILPOptions configure the exact solve. Its only budget is a node limit,
// which makes results reproducible.
type ILPOptions struct {
	// NodeLimit bounds explored branch-and-bound nodes (0 = solver
	// default, 1<<20). The paper reports no ILP results for its two
	// largest designs because lp_solve "did not converge in a specified
	// amount of time"; this budget plays that role deterministically: the
	// same model and limit yield a bit-identical result.
	NodeLimit int
	// WarmStart primes the incumbent, typically with the heuristic
	// solution.
	WarmStart *Solution
}

// BuildILP assembles the paper's ILP (equations 1-5). Rows on no violating
// path are interchangeable — in any optimal solution they all share one
// level (splitting them can only add leakage or clusters) — so they are
// aggregated exactly into a single pseudo-row whose leakage column is their
// sum. This keeps the variable count at (involved+1) * P while preserving
// optimality, including the subtle case where parking the uninvolved rows on
// a used bias level frees the NBB cluster slot. Variables are x_ij (row i at
// level j) and the cluster indicators y_j.
func (inst *Instance) BuildILP() (*ilp.Model, []int) {
	inv := make([]int, 0, inst.N)
	invIdx := make(map[int]int, inst.N)
	for i := 0; i < inst.N; i++ {
		if inst.Involved[i] {
			invIdx[i] = len(inv)
			inv = append(inv, i)
		}
	}
	nInv := len(inv)
	nRows := nInv
	hasAgg := nInv < inst.N
	if hasAgg {
		nRows++ // the aggregated uninvolved pseudo-row
	}
	xIdx := func(i, j int) int { return i*inst.P + j }
	yBase := nRows * inst.P
	nVars := yBase + inst.P

	m := &ilp.Model{}
	m.C = make([]float64, nVars)
	m.U = make([]float64, nVars)
	for v := range m.U {
		m.U[v] = 1
	}
	for i, row := range inv {
		for j := 0; j < inst.P; j++ {
			m.C[xIdx(i, j)] = inst.RowLeakNW[row][j]
		}
	}
	if hasAgg {
		for i := 0; i < inst.N; i++ {
			if inst.Involved[i] {
				continue
			}
			for j := 0; j < inst.P; j++ {
				m.C[xIdx(nInv, j)] += inst.RowLeakNW[i][j]
			}
		}
	}

	addRow := func(a []float64, rel lp.Rel, b float64) {
		m.A = append(m.A, a)
		m.Rel = append(m.Rel, rel)
		m.B = append(m.B, b)
	}

	// Equation 2 (with the sign convention fixed): total reduction on
	// each violating path must reach its requirement.
	for k := range inst.Constraints {
		c := &inst.Constraints[k]
		a := make([]float64, nVars)
		for _, rc := range c.Rows {
			i := invIdx[rc.Row]
			for j := 0; j < inst.P; j++ {
				a[xIdx(i, j)] = rc.DeltaPS[j]
			}
		}
		addRow(a, lp.GE, c.ReqPS)
	}

	// Equation 3: each row (including the pseudo-row) belongs to exactly
	// one cluster.
	for i := 0; i < nRows; i++ {
		a := make([]float64, nVars)
		for j := 0; j < inst.P; j++ {
			a[xIdx(i, j)] = 1
		}
		addRow(a, lp.EQ, 1)
	}

	// Equation 4: level usage linking (F = nRows is "a very large number"
	// at the instance scale) and the cluster-count cap.
	for j := 0; j < inst.P; j++ {
		a := make([]float64, nVars)
		for i := 0; i < nRows; i++ {
			a[xIdx(i, j)] = 1
		}
		a[yBase+j] = -float64(nRows)
		addRow(a, lp.LE, 0)
	}
	capRow := make([]float64, nVars)
	for j := 0; j < inst.P; j++ {
		capRow[yBase+j] = 1
	}
	addRow(capRow, lp.LE, float64(inst.MaxClusters))

	// Routing cap (section 3.3): each non-NBB level needs a bias pair on
	// top metal, and at most MaxBiasPairs fit without growing the die.
	pairRow := make([]float64, nVars)
	for j := 1; j < inst.P; j++ {
		pairRow[yBase+j] = 1
	}
	addRow(pairRow, lp.LE, float64(inst.MaxBiasPairs))
	return m, inv
}

// warmVector translates a full assignment into the ILP variable space
// (uninvolved rows collapse onto the pseudo-row at the highest level any of
// them uses, a feasible if slightly pessimistic incumbent), or reports false
// when the assignment is not representable within the caps.
func (inst *Instance) warmVector(m *ilp.Model, inv []int, s *Solution) ([]float64, bool) {
	nInv := len(inv)
	nRows := nInv
	hasAgg := nInv < inst.N
	if hasAgg {
		nRows++
	}
	yBase := nRows * inst.P
	x := make([]float64, len(m.C))
	levels := map[int]struct{}{}
	for i, row := range inv {
		j := s.Assign[row]
		x[i*inst.P+j] = 1
		levels[j] = struct{}{}
	}
	if hasAgg {
		aggLevel := 0
		for i := 0; i < inst.N; i++ {
			if !inst.Involved[i] && s.Assign[i] > aggLevel {
				aggLevel = s.Assign[i]
			}
		}
		x[nInv*inst.P+aggLevel] = 1
		levels[aggLevel] = struct{}{}
	}
	if len(levels) > inst.MaxClusters {
		return nil, false
	}
	pairs := 0
	for j := range levels {
		if j != 0 {
			pairs++
		}
	}
	if pairs > inst.MaxBiasPairs {
		return nil, false
	}
	for j := range levels {
		x[yBase+j] = 1
	}
	return x, true
}

// NoIncumbentError reports an exact solve that ended without any feasible
// incumbent: the node budget expired before branch and bound found
// an integer point (ilp.NoSolution), or the relaxation was unbounded. It
// replaces the historical (nil, res, nil) return, which handed callers a
// silent nil Solution to dereference.
type NoIncumbentError struct {
	Status ilp.Status
	Beta   float64
}

func (e *NoIncumbentError) Error() string {
	return fmt.Sprintf("core: ILP ended %s with no incumbent at beta=%.1f%%",
		e.Status, e.Beta*100)
}

// SolveILP runs the exact allocator. When the budget expires with an
// incumbent, the returned solution carries Proven=false. When branch and
// bound ends with no incumbent at all, the warm-start solution (when given)
// is returned with Proven=false — it is feasible, just unimproved — and
// otherwise the error is a *NoIncumbentError; either way the ilp.Result
// still reports the explored nodes and bound.
func (inst *Instance) SolveILP(opts ILPOptions) (*Solution, *ilp.Result, error) {
	m, inv := inst.BuildILP()
	var iopts ilp.Options
	iopts.NodeLimit = opts.NodeLimit
	warmOK := false
	if opts.WarmStart != nil {
		iopts.WarmX, warmOK = inst.warmVector(m, inv, opts.WarmStart)
	}
	res, err := ilp.Solve(m, iopts)
	if err != nil {
		return nil, nil, err
	}
	switch res.Status {
	case ilp.InfeasibleProven:
		return nil, &res, fmt.Errorf("core: ILP infeasible at beta=%.1f%%", inst.Beta*100)
	case ilp.NoSolution, ilp.RelaxUnbounded:
		// A warm start that fit the caps is a feasible incumbent even when
		// branch and bound never improved on it; one that did not fit (or
		// none at all) leaves nothing to return.
		if warmOK {
			sol := opts.WarmStart.Clone()
			sol.Proven = false
			return sol, &res, nil
		}
		return nil, &res, &NoIncumbentError{Status: res.Status, Beta: inst.Beta}
	}

	levelOf := func(i int) int {
		for j := 0; j < inst.P; j++ {
			if res.X[i*inst.P+j] > 0.5 {
				return j
			}
		}
		return -1
	}
	assign := make([]int, inst.N)
	for i, row := range inv {
		level := levelOf(i)
		if level < 0 {
			return nil, &res, fmt.Errorf("core: ILP row %d has no level selected", row)
		}
		assign[row] = level
	}
	if len(inv) < inst.N {
		aggLevel := levelOf(len(inv))
		if aggLevel < 0 {
			return nil, &res, fmt.Errorf("core: ILP pseudo-row has no level selected")
		}
		for i := 0; i < inst.N; i++ {
			if !inst.Involved[i] {
				assign[i] = aggLevel
			}
		}
	}
	if !inst.CheckTiming(assign) {
		return nil, &res, fmt.Errorf("core: ILP assignment fails timing check")
	}
	sol, err := inst.solutionFor(assign, "ilp", res.Status == ilp.OptimalProven)
	if err != nil {
		return nil, &res, err
	}
	return sol, &res, nil
}
