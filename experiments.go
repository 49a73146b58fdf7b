package repro

import (
	"context"
	"fmt"

	"repro/internal/bbgen"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/layout"
	"repro/internal/place"
	"repro/internal/spice"
	"repro/internal/sta"
	"repro/internal/tech"
)

// This file holds the experiment drivers that the command-line tools and
// examples run; the benchmarks in bench_test.go run them too, and
// studies_test.go holds the drivers only tests and benchmarks use.
//
// The drivers run on a Runner: a shared flow.Engine memoizes the
// deterministic gen->place->STA prefix of every benchmark (computed once
// and reused across all (beta, C) points), and independent experiment cells
// fan out over a bounded worker pool with context cancellation and
// deterministic, input-ordered results. NewRunner(1) runs them
// sequentially.

// Runner executes the experiment drivers on a shared, cached flow engine.
type Runner struct {
	eng      *flow.Engine
	parallel int
	ctx      context.Context
}

// NewRunner returns a Runner whose drivers run at most parallel experiment
// cells concurrently (0 = one per CPU, 1 = sequential). All drivers share
// one prefix cache, so a Runner reused across calls keeps amortizing the
// gen->place->STA work.
func NewRunner(parallel int) *Runner {
	return &Runner{eng: flow.New(), parallel: parallel}
}

// WithContext returns a shallow copy of the Runner (sharing its engine)
// whose drivers abort when ctx is cancelled.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	c := *r
	c.ctx = ctx
	return &c
}

// Engine exposes the Runner's prefix cache, e.g. to pass to RunOn.
func (r *Runner) Engine() *flow.Engine { return r.eng }

func (r *Runner) context() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// Figure1 reproduces the paper's Figure 1: the simulated inverter speed-up
// and leakage increase across body bias voltages from 0 to Vdd.
func Figure1(stepV float64) ([]spice.SweepPoint, error) {
	if stepV <= 0 {
		stepV = 0.05
	}
	return spice.Figure1Sweep(tech.Default45nm(), stepV)
}

// Table1Options configure the Table 1 regeneration.
type Table1Options struct {
	// Benchmarks to run (default: all nine in paper order).
	Benchmarks []string
	// Betas to evaluate (default 5% and 10%).
	Betas []float64
	// ILPNodeLimit bounds each exact solve's branch-and-bound nodes
	// (default 50000); the paper likewise capped lp_solve's runtime. Node
	// budgets make the ILP columns bit-reproducible at any Runner
	// parallelism.
	ILPNodeLimit int
	// ILPGateLimit skips the ILP on larger designs, reproducing the
	// paper's missing entries for Industrial2/3 (default 5000 gates).
	ILPGateLimit int
	// Solver names the built-in allocation engine for the table's
	// non-ILP columns ("" = "heuristic"; e.g. "local" re-evaluates the
	// table with the portfolio solver). The exact columns always use the
	// ILP, warm-started from this solver's solution.
	Solver string
}

// Table1Row is one line of Table 1. The JSON tags are the wire form served
// by fbbd's /v1/table1.
type Table1Row struct {
	Benchmark  string  `json:"benchmark"`
	Gates      int     `json:"gates"`
	Rows       int     `json:"rows"`
	BetaPct    float64 `json:"betaPct"`
	SingleBBuW float64 `json:"singleBBuW"` // absolute leakage of the block-level baseline
	// ILP savings (percent) at C=2 and C=3; NaN-free: Valid is false for
	// skipped/failed solves (the paper's "-").
	ILPSavC2    float64 `json:"ilpSavC2"`
	ILPSavC3    float64 `json:"ilpSavC3"`
	ILPValidC2  bool    `json:"ilpValidC2"`
	ILPValidC3  bool    `json:"ilpValidC3"`
	ILPProvenC2 bool    `json:"ilpProvenC2"`
	ILPProvenC3 bool    `json:"ilpProvenC3"`
	// ILPStatusC2/C3 report the branch-and-bound outcome ("" when the ILP
	// was skipped) and ILPNodesC2/C3 the explored node counts.
	ILPStatusC2 string `json:"ilpStatusC2,omitempty"`
	ILPStatusC3 string `json:"ilpStatusC3,omitempty"`
	ILPNodesC2  int    `json:"ilpNodesC2,omitempty"`
	ILPNodesC3  int    `json:"ilpNodesC3,omitempty"`
	// Heuristic savings at C=2 and C=3.
	HeurSavC2   float64 `json:"heurSavC2"`
	HeurSavC3   float64 `json:"heurSavC3"`
	Constraints int     `json:"constraints"`
	// Err annotates a failed cell (""  = success). A failing cell no
	// longer discards the rest of the table: Table1 returns every row and
	// marks the broken ones here.
	Err string `json:"err,omitempty"`
}

// Table1 regenerates the paper's Table 1 on r's worker pool. The result
// always has one row per (benchmark, beta) in input order; rows whose cell
// failed carry the error in Err instead of aborting the whole table. The
// returned error is non-nil only when the run itself was cancelled.
//
// Every column is deterministic at any Runner parallelism: the ILP runs
// under a node budget (ILPNodeLimit), so its incumbent, Proven bits and
// node counts are bit-identical run to run regardless of core contention.
func (r *Runner) Table1(opts Table1Options) ([]Table1Row, error) {
	opts = opts.withDefaults()

	type cellKey struct {
		name string
		beta float64
	}
	var jobs []cellKey
	for _, name := range opts.Benchmarks {
		for _, beta := range opts.Betas {
			jobs = append(jobs, cellKey{name, beta})
		}
	}
	rows, errs := flow.MapAll(r.context(), r.parallel, len(jobs),
		func(_ context.Context, i int) (Table1Row, error) {
			return table1Cell(r.eng, jobs[i].name, jobs[i].beta, opts), nil
		})
	for _, err := range errs {
		if err != nil { // only cancellation: cell failures land in row.Err
			return rows, err
		}
	}
	return rows, nil
}

// ilpNodeBudget is the node budget of every exact solve the experiment
// drivers run unless told otherwise: Table 1's default and the budget of
// ClusterSweep and RuntimeComparison.
const ilpNodeBudget = 50000

// withCellDefaults fills the Table1Options fields a single cell reads.
// Table1CellOn applies it, so a cell computed directly on a prefix (the
// fbbd /v1/table1 path) sees exactly the per-cell defaults a full Table1
// run would.
func (o Table1Options) withCellDefaults() Table1Options {
	if o.ILPNodeLimit <= 0 {
		o.ILPNodeLimit = ilpNodeBudget
	}
	if o.ILPGateLimit <= 0 {
		o.ILPGateLimit = 5000
	}
	return o
}

// withDefaults additionally fills the grid-level fields (the benchmark and
// beta lists) that only Runner.Table1 iterates.
func (o Table1Options) withDefaults() Table1Options {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = Benchmarks()
	}
	if len(o.Betas) == 0 {
		o.Betas = []float64{0.05, 0.10}
	}
	return o.withCellDefaults()
}

// Grid returns the benchmarks and betas a Table 1 run iterates: the
// options' own lists, or all benchmarks and 5% and 10% where they are
// empty. fbbd and fbbrouter walk the grid themselves; reading it here
// keeps their rows exactly Runner.Table1's.
func (o Table1Options) Grid() (benchmarks []string, betas []float64) {
	o = o.withDefaults()
	return o.Benchmarks, o.Betas
}

// table1Cell computes one (benchmark, beta) row on a shared engine. Errors
// are annotated on the row rather than returned, so one broken cell cannot
// sink the completed ones.
func table1Cell(e *flow.Engine, name string, beta float64, opts Table1Options) Table1Row {
	pfx, err := e.Prefix(name, 0)
	if err != nil {
		return Table1Row{Benchmark: name, BetaPct: beta * 100, Err: err.Error()}
	}
	return Table1CellOn(pfx, name, beta, opts)
}

// Table1CellOn computes one (benchmark, beta) row of Table 1 on an already
// computed prefix — the per-cell half of Runner.Table1, exported so callers
// with their own prefix cache (fbbd) produce rows byte-identical to the
// in-process driver. Failures are annotated on the row, never returned.
func Table1CellOn(pfx *flow.Prefix, name string, beta float64, opts Table1Options) Table1Row {
	opts = opts.withCellDefaults()
	row := Table1Row{Benchmark: name, BetaPct: beta * 100}
	for _, c := range []int{2, 3} {
		res, err := RunWith(pfx, Config{
			Beta:         beta,
			MaxClusters:  c,
			Solver:       opts.Solver,
			ILPNodeLimit: opts.ILPNodeLimit,
			SkipLayout:   true,
		})
		if err != nil {
			row.Err = err.Error()
			return row
		}
		row.Gates = res.Design.Gates
		row.Rows = res.Rows
		row.Constraints = res.Constraints
		row.SingleBBuW = res.Single.TotalLeakNW / 1000
		heur := core.Savings(res.Single, res.Heuristic)
		if c == 2 {
			row.HeurSavC2 = heur
		} else {
			row.HeurSavC3 = heur
		}
		if res.Design.Gates <= opts.ILPGateLimit {
			sol, ires, err := res.Problem.SolveILP(core.ILPOptions{
				NodeLimit: opts.ILPNodeLimit,
				WarmStart: res.Heuristic,
			})
			if err != nil {
				row.Err = err.Error()
				return row
			}
			if sol != nil {
				sav := core.Savings(res.Single, sol)
				if c == 2 {
					row.ILPSavC2, row.ILPValidC2 = sav, true
					row.ILPProvenC2 = sol.Proven
				} else {
					row.ILPSavC3, row.ILPValidC3 = sav, true
					row.ILPProvenC3 = sol.Proven
				}
			}
			if ires != nil {
				if c == 2 {
					row.ILPStatusC2, row.ILPNodesC2 = ires.Status.String(), ires.Nodes
				} else {
					row.ILPStatusC3, row.ILPNodesC3 = ires.Status.String(), ires.Nodes
				}
			}
		}
	}
	return row
}

// SweepPoint is one point of the cluster-count sweep (the paper's in-text
// c5315 experiment, C = 2..11 at beta = 5%).
type SweepPoint struct {
	C            int
	SavingsPct   float64
	ClustersUsed int
}

// ClusterSweep sweeps the cluster cap. The routing pair limit is lifted to
// match C, as in the paper's what-if study (its conclusion — the marginal
// gain beyond C=3 is small — is what justifies the 2-pair layout). When
// exact is set the sweep uses the exact allocator (warm-started by the
// heuristic) under Table 1's node budget, matching the paper's
// optimizer-quality sweep; otherwise it reports the heuristic, whose greedy
// split is noticeably weaker at C=2. Either sweep is deterministic at any
// parallelism.
func (r *Runner) ClusterSweep(name string, beta float64, cFrom, cTo int, exact bool) ([]SweepPoint, error) {
	if cFrom < 1 || cTo < cFrom {
		return nil, fmt.Errorf("repro: bad sweep range [%d, %d]", cFrom, cTo)
	}
	return flow.Map(r.context(), r.parallel, cTo-cFrom+1,
		func(_ context.Context, i int) (SweepPoint, error) {
			c := cFrom + i
			res, err := RunOn(r.eng, Config{
				Benchmark:    name,
				Beta:         beta,
				MaxClusters:  c,
				MaxBiasPairs: c,
				SkipLayout:   true,
			})
			if err != nil {
				return SweepPoint{}, err
			}
			best := res.Heuristic
			if exact {
				sol, _, err := res.Problem.SolveILP(core.ILPOptions{
					NodeLimit: ilpNodeBudget,
					WarmStart: res.Heuristic,
				})
				if err == nil && sol != nil {
					best = sol
				}
			}
			return SweepPoint{
				C:            c,
				SavingsPct:   core.Savings(res.Single, best),
				ClustersUsed: best.Clusters,
			}, nil
		})
}

// LayoutStudy bundles the physical-implementation artifacts of Figures 3
// and 6 for one design.
type LayoutStudy struct {
	Result *Result
	Report *layout.Report
	ASCII  string
	SVG    string
}

// StudyLayout runs the flow and renders the clustered layout.
func StudyLayout(name string, beta float64, c int) (*LayoutStudy, error) {
	res, err := Run(Config{Benchmark: name, Beta: beta, MaxClusters: c})
	if err != nil {
		return nil, err
	}
	return &LayoutStudy{
		Result: res,
		Report: res.Layout,
		ASCII:  layout.RenderASCII(res.Placement, res.Heuristic.Assign, res.Layout),
		SVG:    layout.RenderSVG(res.Placement, res.Heuristic.Assign, res.Layout),
	}, nil
}

// BlockTuning is one block of the Figure 2 scenario.
type BlockTuning struct {
	Name       string
	BetaPct    float64
	Levels     []int // non-NBB levels the block's clusters need
	SavingsPct float64
}

// MultiBlockResult is the Figure 2 reproduction: several blocks compensated
// from one central generator.
type MultiBlockResult struct {
	Blocks         []BlockTuning
	Plan           *bbgen.Plan
	DistinctLevels int
	GenAreaPct     float64
}

// MultiBlock tunes each named block for its own slowdown on r's worker
// pool and routes the union of bias demands through a central generator.
func (r *Runner) MultiBlock(names []string, betas []float64) (*MultiBlockResult, error) {
	if len(names) != len(betas) {
		return nil, fmt.Errorf("repro: %d blocks but %d betas", len(names), len(betas))
	}
	blocks, err := flow.Map(r.context(), r.parallel, len(names),
		func(_ context.Context, i int) (BlockTuning, error) {
			res, err := RunOn(r.eng, Config{Benchmark: names[i], Beta: betas[i], SkipLayout: true})
			if err != nil {
				return BlockTuning{}, err
			}
			var levels []int
			seen := map[int]struct{}{}
			for _, j := range res.Heuristic.Assign {
				if j == 0 {
					continue
				}
				if _, ok := seen[j]; !ok {
					seen[j] = struct{}{}
					levels = append(levels, j)
				}
			}
			return BlockTuning{
				Name:       names[i],
				BetaPct:    betas[i] * 100,
				Levels:     levels,
				SavingsPct: core.Savings(res.Single, res.Heuristic),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	g := bbgen.New(tech.Default45nm())
	out := &MultiBlockResult{Blocks: blocks, GenAreaPct: g.AreaOverheadPct}
	reqs := make([]bbgen.BlockRequest, len(blocks))
	for i, b := range blocks {
		reqs[i] = bbgen.BlockRequest{Name: b.Name, Levels: b.Levels, Alarm: true}
	}
	plan, err := g.Distribute(reqs)
	if err != nil {
		return nil, err
	}
	out.Plan = plan
	out.DistinctLevels = plan.DistinctLevels
	return out, nil
}

// NominalTiming exposes STA on a named benchmark for examples.
func NominalTiming(name string) (*place.Placement, *sta.Timing, error) {
	d, err := buildBench(name, Library())
	if err != nil {
		return nil, nil, err
	}
	pfx, err := flow.PrefixFor(d, Library(), 0)
	if err != nil {
		return nil, nil, err
	}
	return pfx.Placement, pfx.Timing, nil
}
