package repro

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
)

// The experiment-driver tests pin the flow-engine refactor's contract: the
// parallel pool must reproduce the sequential drivers byte for byte, cell
// failures must annotate rows instead of sinking the table, and a shared
// engine must reuse — not recompute — the deterministic prefix. The ILP is
// disabled (ILPGateLimit: 1 skips designs above one gate) so the rows carry
// no wall-clock-dependent content.

// table1Fingerprint renders rows to a canonical byte string for equality.
func table1Fingerprint(rows []Table1Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%#v\n", r)
	}
	return b.String()
}

func testTable1Opts() Table1Options {
	return Table1Options{
		Benchmarks:   []string{"c1355"},
		Betas:        []float64{0.05, 0.10},
		ILPGateLimit: 1, // heuristic only: deterministic under contention
	}
}

func TestTable1ParallelMatchesSequential(t *testing.T) {
	opts := testTable1Opts()
	if !testing.Short() {
		opts.Benchmarks = []string{"c1355", "c3540"}
	}
	seq, err := NewRunner(1).Table1(opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewRunner(8).Table1(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(opts.Benchmarks)*len(opts.Betas) {
		t.Fatalf("got %d rows, want %d", len(seq), len(opts.Benchmarks)*len(opts.Betas))
	}
	if sf, pf := table1Fingerprint(seq), table1Fingerprint(par); sf != pf {
		t.Errorf("parallel rows differ from sequential:\nseq:\n%s\npar:\n%s", sf, pf)
	}
	for _, r := range seq {
		if r.Err != "" {
			t.Errorf("%s beta=%g%%: unexpected cell error: %s", r.Benchmark, r.BetaPct, r.Err)
		}
		if r.HeurSavC3 < r.HeurSavC2 {
			t.Errorf("%s beta=%g%%: C=3 saves less than C=2 (%g < %g)",
				r.Benchmark, r.BetaPct, r.HeurSavC3, r.HeurSavC2)
		}
	}
}

func TestTable1PartialRowsOnCellFailure(t *testing.T) {
	opts := testTable1Opts()
	opts.Benchmarks = []string{"c1355", "no-such-benchmark"}
	opts.Betas = []float64{0.05}
	rows, err := NewRunner(1).Table1(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (completed rows must survive a failing cell)", len(rows))
	}
	if rows[0].Err != "" || rows[0].Gates == 0 {
		t.Errorf("good cell broken: %+v", rows[0])
	}
	if rows[1].Err == "" {
		t.Error("failing cell not annotated")
	}
	if rows[1].Benchmark != "no-such-benchmark" {
		t.Errorf("failed row names %q", rows[1].Benchmark)
	}
}

func TestTable1SurfacesILPStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("ILP cell in -short mode")
	}
	rows, err := NewRunner(1).Table1(Table1Options{
		Benchmarks: []string{"c1355"},
		Betas:      []float64{0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	if !r.ILPValidC2 || !r.ILPValidC3 {
		t.Fatalf("ILP did not produce solutions: %+v", r)
	}
	if r.ILPStatusC2 == "" || r.ILPStatusC3 == "" {
		t.Errorf("ILP status not surfaced: C2=%q C3=%q", r.ILPStatusC2, r.ILPStatusC3)
	}
	if r.ILPNodesC2 <= 0 || r.ILPNodesC3 <= 0 {
		t.Errorf("ILP node counts not surfaced: C2=%d C3=%d", r.ILPNodesC2, r.ILPNodesC3)
	}
}

// TestTable1CellILPNodeLimit: Table 1's node budget bounds the primary
// solver's exact solve as well as the ILP columns, so with Solver "ilp" the
// heuristic columns are exactly RunWith's under the same budget. One node
// leaves c1355 at beta=10%, C=3 short of its unbudgeted optimum (557.2 nW
// extra leakage against 481.2 nW), so a cell that dropped the budget shows.
func TestTable1CellILPNodeLimit(t *testing.T) {
	pfx, err := flow.New().Prefix("c1355", 0)
	if err != nil {
		t.Fatal(err)
	}
	const beta = 0.10
	// ILPGateLimit 1 skips the ILP columns; only the primary solve runs.
	row := Table1CellOn(pfx, "c1355", beta, Table1Options{Solver: "ilp", ILPNodeLimit: 1, ILPGateLimit: 1})
	if row.Err != "" {
		t.Fatal(row.Err)
	}
	run := func(c, nodeLimit int) float64 {
		t.Helper()
		res, err := RunWith(pfx, Config{Beta: beta, MaxClusters: c, Solver: "ilp", ILPNodeLimit: nodeLimit, SkipLayout: true})
		if err != nil {
			t.Fatal(err)
		}
		return core.Savings(res.Single, res.Heuristic)
	}
	if want := run(2, 1); row.HeurSavC2 != want {
		t.Errorf("C=2: cell saves %v%%, RunWith at one node %v%%", row.HeurSavC2, want)
	}
	if want := run(3, 1); row.HeurSavC3 != want {
		t.Errorf("C=3: cell saves %v%%, RunWith at one node %v%%", row.HeurSavC3, want)
	}
	if run(3, 0) == row.HeurSavC3 {
		t.Error("C=3: one node matches the unbudgeted solve; the fixture cannot tell the budgets apart")
	}
}

func TestClusterSweepParallelMatchesSequential(t *testing.T) {
	cTo := 6
	if testing.Short() {
		cTo = 4
	}
	for _, tc := range []struct {
		name  string
		exact bool
	}{{"heuristic", false}, {"exact", true}} {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := NewRunner(1).ClusterSweep("c1355", 0.05, 2, cTo, tc.exact)
			if err != nil {
				t.Fatal(err)
			}
			par, err := NewRunner(8).ClusterSweep("c1355", 0.05, 2, cTo, tc.exact)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%#v", seq) != fmt.Sprintf("%#v", par) {
				t.Errorf("parallel sweep differs:\nseq: %#v\npar: %#v", seq, par)
			}
			for i, p := range seq {
				if p.C != 2+i {
					t.Fatalf("point %d has C=%d, want %d (ordering must be deterministic)", i, p.C, 2+i)
				}
			}
		})
	}
}

func TestRunOnSharesPrefixAcrossPoints(t *testing.T) {
	eng := flow.New()
	builds := flow.PrefixBuilds()
	a, err := RunOn(eng, Config{Benchmark: "c1355", Beta: 0.05, SkipLayout: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOn(eng, Config{Benchmark: "c1355", Beta: 0.10, MaxClusters: 2, SkipLayout: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Placement != b.Placement || a.Timing != b.Timing {
		t.Error("engine recomputed the prefix for a second (beta, C) point")
	}
	if n := flow.PrefixBuilds() - builds; n != 1 {
		t.Errorf("engine built %d prefixes for one design, want 1", n)
	}
	// The engine-served result must match the from-scratch path.
	plain, err := Run(Config{Benchmark: "c1355", Beta: 0.05, SkipLayout: true})
	if err != nil {
		t.Fatal(err)
	}
	ha := core.Savings(a.Single, a.Heuristic)
	hp := core.Savings(plain.Single, plain.Heuristic)
	if ha != hp || a.Constraints != plain.Constraints || a.DcritPS != plain.DcritPS {
		t.Errorf("cached flow diverged: savings %g vs %g, constraints %d vs %d",
			ha, hp, a.Constraints, plain.Constraints)
	}
}

// TestTable1EngineSpeedup logs the wall-clock gain of the cached, parallel
// engine over the uncached sequential path on a small grid. It asserts only
// a sanity bound (parallel no slower than 1.5x the uncached time) because
// CI machines vary; the acceptance measurement over the full suite is
// recorded in README.md.
func TestTable1EngineSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison in -short mode")
	}
	opts := testTable1Opts()

	start := time.Now()
	// Uncached sequential baseline: a fresh engine per cell, like the
	// pre-flow-engine drivers that called Run() for every (beta, C) point.
	for _, name := range opts.Benchmarks {
		for _, beta := range opts.Betas {
			o := opts
			o.Benchmarks, o.Betas = []string{name}, []float64{beta}
			if _, err := NewRunner(1).Table1(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	uncached := time.Since(start)

	start = time.Now()
	if _, err := NewRunner(0).Table1(opts); err != nil {
		t.Fatal(err)
	}
	engine := time.Since(start)

	t.Logf("table1 %v x %v: uncached sequential %v, cached parallel %v (%.1fx)",
		opts.Benchmarks, opts.Betas, uncached, engine,
		float64(uncached)/float64(engine))
	if engine > uncached*3/2 {
		t.Errorf("flow engine slower than uncached path: %v vs %v", engine, uncached)
	}
}
