// Package repro is the public entry point of ClusterFBB, a from-scratch
// reproduction of "Physically Clustered Forward Body Biasing for Variability
// Compensation in Nanometer CMOS design" (Sathanur, Pullini, Benini,
// De Micheli, Macii — DATE 2009).
//
// The package wires the full flow together: benchmark generation (or a
// user-provided netlist), row-based placement, static timing analysis,
// clustering-problem construction, the single-voltage baseline, the
// two-pass heuristic, the exact ILP, and the layout implementation check.
// Experiment drivers regenerating every figure and table of the paper live
// in experiments.go; the runnable programs under cmd/ and examples/ are
// thin wrappers over this API.
package repro

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/ilp"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/sta"
)

// Config selects a design and the allocation parameters.
type Config struct {
	// Benchmark names one of the paper's Table 1 designs (see
	// Benchmarks); alternatively supply a Design directly.
	Benchmark string
	// Design is a custom netlist mapped to the default library; it takes
	// precedence over Benchmark.
	Design *netlist.Design

	// Beta is the slowdown coefficient to compensate (default 0.05).
	Beta float64
	// MaxClusters is C (default 3); MaxBiasPairs caps routed pairs
	// (default 2).
	MaxClusters  int
	MaxBiasPairs int

	// Solver names the built-in core.Solver producing the Result's
	// primary allocation ("" = "heuristic"; see core.SolverNames). The
	// "ilp" solver is configured with the ILP* settings below; selecting it
	// makes the primary allocation exact, independently of RunILP.
	Solver string

	// RunILP additionally runs the exact allocator under the ILP* settings.
	RunILP bool
	// ILPNodeLimit bounds explored branch-and-bound nodes (0 = solver
	// default, 1<<20). Node budgets are deterministic: the same instance
	// and limit return bit-identical allocations.
	ILPNodeLimit int

	// ForceRows overrides the placer's row count (0 = automatic).
	ForceRows int
	// SkipLayout disables the layout implementation check.
	SkipLayout bool
}

// Result carries everything the flow produced.
type Result struct {
	// Design/Rows/DcritPS/Constraints describe the instance.
	Design      netlist.Stats
	Rows        int
	DcritPS     float64
	Constraints int

	// Single, Heuristic and ILP are the allocations (ILP nil unless
	// requested and solved; Single/Heuristic always set). Heuristic holds
	// the solution of the configured Solver — the two-pass heuristic by
	// default, SolverName says which actually ran.
	Single     *core.Solution
	Heuristic  *core.Solution
	ILP        *core.Solution
	SolverName string
	// ILPStatus reports the branch-and-bound outcome ("" if not run),
	// ILPNodes the explored nodes.
	ILPStatus string
	ILPNodes  int
	// ILPResult carries the full branch-and-bound diagnostics (status,
	// nodes, bound, strong-branching LPs) of the most recent exact solve —
	// RunILP's, or the primary solver's when it is "ilp". Nil when no
	// exact solve ran.
	ILPResult *ilp.Result

	// HeuristicTime and ILPTime are wall-clock allocator runtimes.
	HeuristicTime time.Duration
	ILPTime       time.Duration

	// Layout is the implementation report for the heuristic solution.
	Layout *layout.Report

	// Problem, Placement and Timing expose the underlying objects for
	// further experiments. Problem is private to this Result (never
	// re-materialized), so its fields stay valid indefinitely; a Solve on
	// it reuses its scratch, while SolveILP and CheckTiming only read it.
	Problem   *core.Instance
	Placement *place.Placement
	Timing    *sta.Timing
}

// Benchmarks returns the names of the built-in Table 1 designs.
func Benchmarks() []string { return gen.Names() }

// buildBench generates a named benchmark design.
func buildBench(name string, lib *cell.Library) (*netlist.Design, error) {
	return gen.Build(name, lib)
}

// Library returns the shared characterized 45nm cell library.
func Library() *cell.Library { return cell.Default() }

// Run executes the full flow, computing every stage from scratch. Callers
// running many related points (experiment grids, sweeps) should share a
// flow.Engine via RunOn so the deterministic prefix is computed once.
func Run(cfg Config) (*Result, error) { return RunOn(nil, cfg) }

// RunOn executes the flow as composable stages: the deterministic prefix
// (generation, placement, nominal STA) is served from e's concurrency-safe
// cache and shared across every (Beta, MaxClusters) point on the same
// benchmark; problem construction, allocation and the layout check then run
// per call. A nil engine computes the prefix from scratch, matching Run.
// Custom designs (cfg.Design) have no cache key and always compute their
// own prefix. RunOn is safe for concurrent use with a shared engine.
func RunOn(e *flow.Engine, cfg Config) (*Result, error) {
	pfx, err := stagePrefix(e, cfg)
	if err != nil {
		return nil, err
	}
	return RunWith(pfx, cfg) // applies the Beta default
}

// RunWith executes the per-point stages — problem materialization,
// allocation, layout check — on an already computed prefix, skipping prefix
// resolution entirely. It is the entry point for callers that manage their
// own prefix cache (the fbbd service's hash-keyed LRU); RunOn is exactly
// stagePrefix followed by RunWith, so the two agree byte for byte on the
// same prefix and config. Safe for concurrent use: the prefix is only read.
func RunWith(pfx *flow.Prefix, cfg Config) (*Result, error) {
	if cfg.Beta == 0 {
		cfg.Beta = 0.05
	}
	res, err := stageProblem(pfx, cfg)
	if err != nil {
		return nil, err
	}
	if err := stageAllocate(res, cfg); err != nil {
		return nil, err
	}
	if err := stageLayout(res, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// stagePrefix resolves stages 1-3 (generate, place, STA), cached on the
// engine for named benchmarks.
func stagePrefix(e *flow.Engine, cfg Config) (*flow.Prefix, error) {
	lib := cell.Default()
	if cfg.Design != nil {
		return flow.PrefixFor(cfg.Design, lib, cfg.ForceRows)
	}
	if cfg.Benchmark == "" {
		return nil, errors.New("repro: no benchmark or design given")
	}
	if e != nil {
		return e.Prefix(cfg.Benchmark, cfg.ForceRows)
	}
	d, err := gen.Build(cfg.Benchmark, lib)
	if err != nil {
		return nil, err
	}
	return flow.PrefixFor(d, lib, cfg.ForceRows)
}

// stageProblem materializes the clustering instance for one (Beta,
// MaxClusters) point through the prefix's shared Allocator and seeds the
// Result. The Instance is private to the Result and never re-materialized,
// so the exposed Problem has the lifetime callers expect.
func stageProblem(pfx *flow.Prefix, cfg Config) (*Result, error) {
	inst, err := pfx.Allocator.At(core.Options{
		Beta:         cfg.Beta,
		MaxClusters:  cfg.MaxClusters,
		MaxBiasPairs: cfg.MaxBiasPairs,
	}, nil)
	if err != nil {
		return nil, err
	}
	return &Result{
		Design:      pfx.Design.Stats(),
		Rows:        pfx.Placement.NumRows,
		DcritPS:     pfx.Timing.DcritPS,
		Constraints: inst.NumConstraints(),
		Problem:     inst,
		Placement:   pfx.Placement,
		Timing:      pfx.Timing,
	}, nil
}

// stageAllocate runs the allocators: the single-voltage baseline, the
// configured solver (two-pass heuristic by default), and (when requested)
// the exact ILP.
func stageAllocate(res *Result, cfg Config) error {
	single, err := res.Problem.SingleBB()
	if err != nil {
		return fmt.Errorf("repro: %s: %w", res.Design.Name, err)
	}
	res.Single = single.Clone()

	solver, err := core.ParseSolver(cfg.Solver, cfg.ILPNodeLimit)
	if err != nil {
		return err
	}
	res.SolverName = cfg.Solver
	if res.SolverName == "" {
		res.SolverName = "heuristic"
	}
	start := time.Now()
	sol, err := res.Problem.Solve(solver)
	if err != nil {
		return err
	}
	res.Heuristic = sol.Clone()
	res.HeuristicTime = time.Since(start)
	res.ILPResult = res.Problem.ILPResult

	if cfg.RunILP {
		start = time.Now()
		sol, ires, err := res.Problem.SolveILP(core.ILPOptions{NodeLimit: cfg.ILPNodeLimit, WarmStart: res.Heuristic})
		res.ILPTime = time.Since(start)
		if err != nil {
			return err
		}
		res.ILP = sol
		res.ILPResult = ires
	}
	if res.ILPResult != nil {
		res.ILPStatus = res.ILPResult.Status.String()
		res.ILPNodes = res.ILPResult.Nodes
	}
	return nil
}

// stageLayout runs the implementation check on the heuristic allocation.
func stageLayout(res *Result, cfg Config) error {
	if cfg.SkipLayout {
		return nil
	}
	var err error
	res.Layout, err = layout.Apply(res.Placement, res.Heuristic.Assign, layout.Options{})
	return err
}

// AllocSummary is the JSON-stable digest of one allocation. Leakages are in
// microwatts (the paper's Table 1 unit).
type AllocSummary struct {
	Method      string    `json:"method"`
	TotalLeakUW float64   `json:"totalLeakUW"`
	ExtraLeakUW float64   `json:"extraLeakUW"`
	SavingsPct  float64   `json:"savingsPct"`
	Clusters    int       `json:"clusters"`
	VbsLevels   []float64 `json:"vbsLevels"`
	Assign      []int     `json:"assign"`
	Proven      bool      `json:"proven,omitempty"`
}

// Summary is a deterministic, JSON-stable digest of a Result: everything the
// flow computed except wall-clock fields (runtimes, ILP node counts), so two
// runs of the same config — in-process or across a service boundary —
// marshal to identical bytes. It is the response body of fbbd's /v1/tune.
type Summary struct {
	Benchmark   string        `json:"benchmark"`
	Gates       int           `json:"gates"`
	DFFs        int           `json:"dffs"`
	Rows        int           `json:"rows"`
	DcritPS     float64       `json:"dcritPS"`
	Constraints int           `json:"constraints"`
	Solver      string        `json:"solver"`
	Single      AllocSummary  `json:"single"`
	Best        AllocSummary  `json:"best"`
	ILP         *AllocSummary `json:"ilp,omitempty"`
}

// summarizeAlloc digests one solution against the single-voltage baseline.
func (r *Result) summarizeAlloc(s *core.Solution) AllocSummary {
	return AllocSummary{
		Method:      s.Method,
		TotalLeakUW: s.TotalLeakNW / 1000,
		ExtraLeakUW: s.ExtraLeakNW / 1000,
		SavingsPct:  core.Savings(r.Single, s),
		Clusters:    s.Clusters,
		VbsLevels:   r.Problem.VbsOf(s),
		Assign:      s.Assign,
		Proven:      s.Proven,
	}
}

// Summarize digests the Result into its deterministic JSON form. The ILP
// entry is present only when RunILP produced a solution. Every solver is
// fully deterministic: the exact one stops early only on its node budget.
func (r *Result) Summarize() *Summary {
	s := &Summary{
		Benchmark:   r.Design.Name,
		Gates:       r.Design.Gates,
		DFFs:        r.Design.DFFs,
		Rows:        r.Rows,
		DcritPS:     r.DcritPS,
		Constraints: r.Constraints,
		Solver:      r.SolverName,
		Single:      r.summarizeAlloc(r.Single),
		Best:        r.summarizeAlloc(r.Heuristic),
	}
	if r.ILP != nil {
		ilp := r.summarizeAlloc(r.ILP)
		s.ILP = &ilp
	}
	return s
}
