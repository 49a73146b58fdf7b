package core

import "fmt"

// Solver is an allocation engine over a materialized Instance. The paper
// evaluates two points of the quality-vs-speed space (the linear-time
// heuristic and the exact ILP); LocalSolver sits between them. The built-ins
// are constructed by name through NewNamedSolver; callers holding a Solver
// value (tests, TuneOptions.Solver) may pass any implementation.
//
// Implementations must be safe for concurrent Solve calls on *distinct*
// Instances (the built-ins are: any mutable per-solve state lives in the
// Instance). The returned Solution may share the Instance's scratch — it is
// invalidated by the next solve or At on the same Instance; Clone it to
// keep it.
type Solver interface {
	// Name identifies the solver in flags and Solution.Method.
	Name() string
	// Solve allocates clustered FBB on the materialized instance.
	Solve(inst *Instance) (*Solution, error)
}

// NewNamedSolver returns a fresh, default-configured value of the named
// built-in solver, so callers may adjust its fields without racing other
// users.
func NewNamedSolver(name string) (Solver, error) {
	switch name {
	case "heuristic":
		return HeuristicSolver{}, nil
	case "ilp":
		return &ILPSolver{}, nil
	case "local":
		return &LocalSolver{}, nil
	}
	return nil, fmt.Errorf("core: unknown solver %q (have %v)", name, SolverNames())
}

// SolverNames lists the built-in solvers, sorted.
func SolverNames() []string { return []string{"heuristic", "ilp", "local"} }

// HeuristicSolver is the paper's two-pass greedy allocator (Figure 5) as a
// Solver, allocation-free on a warmed Instance.
type HeuristicSolver struct{}

// Name implements Solver.
func (HeuristicSolver) Name() string { return "heuristic" }

// Solve implements Solver.
func (HeuristicSolver) Solve(inst *Instance) (*Solution, error) {
	return inst.solveHeuristic()
}

// ILPSolver is the paper's exact allocator (equations 1-5) as a Solver. It
// first runs the two-pass heuristic on the instance and hands branch and
// bound that solution as the incumbent, so even a budget-starved solve
// returns a feasible allocation. The branch-and-bound outcome (status,
// nodes, bound) of the latest solve is published on Instance.ILPResult.
type ILPSolver struct {
	// Opts bound the exact solve; WarmStart is overridden with the
	// heuristic solution of the same instance.
	Opts ILPOptions
}

// Name implements Solver.
func (*ILPSolver) Name() string { return "ilp" }

// Solve implements Solver.
func (s *ILPSolver) Solve(inst *Instance) (*Solution, error) {
	warm, err := (HeuristicSolver{}).Solve(inst)
	if err != nil {
		// PassOne failed: no uniform bias meets timing, so the ILP is
		// infeasible too — surface the cheaper diagnosis.
		return nil, err
	}
	opts := s.Opts
	opts.WarmStart = warm
	sol, res, err := inst.SolveILP(opts)
	inst.ILPResult = res
	return sol, err
}
