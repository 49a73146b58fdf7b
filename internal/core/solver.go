package core

import "fmt"

// Solver is an allocation engine over a materialized Instance. The paper
// evaluates two points of the quality-vs-speed space (the linear-time
// heuristic and the exact ILP); LocalSolver sits between them. The set is
// sealed: HeuristicSolver, ILPSolver and LocalSolver are the only
// implementations, all comparable values, so a Solver is its own
// configuration and keys SolveCache directly. ParseSolver builds one from a
// name.
//
// The built-ins are safe for concurrent solves on *distinct* Instances: any
// mutable per-solve state lives in the Instance. The returned Solution may
// share the Instance's scratch — it is invalidated by the next solve or At
// on the same Instance; Clone it to keep it.
type Solver interface {
	solve(inst *Instance) (*Solution, error)
}

// ParseSolver returns the built-in solver of the given name ("" =
// "heuristic"). nodeLimit configures "ilp" (0 = its default node budget,
// 1<<20) and is ignored by the others.
func ParseSolver(name string, nodeLimit int) (Solver, error) {
	switch name {
	case "", "heuristic":
		return HeuristicSolver{}, nil
	case "ilp":
		return ILPSolver{NodeLimit: nodeLimit}, nil
	case "local":
		return LocalSolver{}, nil
	}
	return nil, fmt.Errorf("core: unknown solver %q (have %v)", name, SolverNames())
}

// SolverNames lists the built-in solvers, sorted.
func SolverNames() []string { return []string{"heuristic", "ilp", "local"} }

// HeuristicSolver is the paper's two-pass greedy allocator (Figure 5) as a
// Solver, allocation-free on a warmed Instance.
type HeuristicSolver struct{}

func (HeuristicSolver) solve(inst *Instance) (*Solution, error) {
	return inst.solveHeuristic()
}

// ILPSolver is the paper's exact allocator (equations 1-5) as a Solver. It
// first runs the two-pass heuristic on the instance and hands branch and
// bound that solution as the incumbent, so even a budget-starved solve
// returns a feasible allocation. The branch-and-bound outcome (status,
// nodes, bound) of the latest solve is published on Instance.ILPResult.
type ILPSolver struct {
	// NodeLimit bounds explored branch-and-bound nodes (0 = the default,
	// 1<<20), as ILPOptions.NodeLimit.
	NodeLimit int
}

func (s ILPSolver) solve(inst *Instance) (*Solution, error) {
	warm, err := inst.solveHeuristic()
	if err != nil {
		// PassOne failed: no uniform bias meets timing, so the ILP is
		// infeasible too — surface the cheaper diagnosis.
		return nil, err
	}
	sol, res, err := inst.SolveILP(ILPOptions{NodeLimit: s.NodeLimit, WarmStart: warm})
	inst.ILPResult = res
	return sol, err
}
