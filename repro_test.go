package repro

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netlist"
)

func TestRunEndToEnd(t *testing.T) {
	res, err := Run(Config{Benchmark: "c1355", Beta: 0.05, MaxClusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Design.Gates == 0 || res.Rows == 0 || res.DcritPS <= 0 {
		t.Fatalf("degenerate result: %+v", res.Design)
	}
	if res.Single == nil || res.Heuristic == nil {
		t.Fatal("missing allocations")
	}
	h, _ := res.SavingsPct()
	if h <= 0 || h >= 100 {
		t.Errorf("heuristic savings %.1f%% implausible", h)
	}
	if res.Layout == nil || !res.Layout.Feasible() {
		t.Error("layout check missing or infeasible")
	}
	if res.ILP != nil {
		t.Error("ILP ran without being requested")
	}
}

func TestRunWithILP(t *testing.T) {
	res, err := Run(Config{
		Benchmark: "c1355",
		Beta:      0.05,
		RunILP:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ILP == nil {
		t.Fatalf("no ILP solution (status %s)", res.ILPStatus)
	}
	h, i := res.SavingsPct()
	if i < h-1e-6 {
		t.Errorf("ILP savings %.2f below heuristic %.2f", i, h)
	}
	if res.ILPNodes <= 0 {
		t.Error("no nodes reported")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(Config{Benchmark: "bogus"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Run(Config{Benchmark: "c1355", Beta: 0.5}); err == nil {
		t.Error("uncompensatable beta accepted")
	}
}

func TestRunCustomDesign(t *testing.T) {
	lib := Library()
	b := netlist.NewBuilder("custom", lib)
	a, x := b.PI("a"), b.PI("b")
	s := b.Nand(a, x)
	for i := 0; i < 200; i++ {
		s = b.Nand(s, x)
	}
	b.Output("y", s)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Design: d, Beta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Design.Name != "custom" {
		t.Errorf("wrong design: %s", res.Design.Name)
	}
}

func TestFigure1Driver(t *testing.T) {
	pts, err := Figure1(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 20 {
		t.Fatalf("points = %d, want 20 (0..0.95 in 50mV)", len(pts))
	}
	var at05 int
	for i, p := range pts {
		if math.Abs(p.Vbs-0.5) < 1e-9 {
			at05 = i
		}
	}
	if math.Abs(pts[at05].Speedup-0.21) > 0.02 {
		t.Errorf("speedup at 0.5V = %.3f, want ~0.21", pts[at05].Speedup)
	}
	if math.Abs(pts[at05].LeakFactor-12.74) > 1.0 {
		t.Errorf("leakage at 0.5V = %.2f, want ~12.74", pts[at05].LeakFactor)
	}
}

func TestTable1SmallSlice(t *testing.T) {
	rows, err := Table1(Table1Options{
		Benchmarks: []string{"c1355"},
		Betas:      []float64{0.05, 0.10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.SingleBBuW <= 0 {
			t.Error("single BB leakage missing")
		}
		if r.HeurSavC3 < r.HeurSavC2-1e-9 {
			t.Errorf("beta=%.0f%%: C=3 heuristic %.1f%% worse than C=2 %.1f%%",
				r.BetaPct, r.HeurSavC3, r.HeurSavC2)
		}
		if r.ILPValidC2 && r.ILPSavC2 < r.HeurSavC2-1e-6 {
			t.Error("ILP below heuristic at C=2")
		}
	}
	// Savings grow with beta (Table 1's trend).
	if rows[1].HeurSavC3 <= rows[0].HeurSavC3 {
		t.Errorf("savings did not grow with beta: %.1f -> %.1f",
			rows[0].HeurSavC3, rows[1].HeurSavC3)
	}
}

func TestClusterSweepMarginalGains(t *testing.T) {
	// The paper's in-text experiment: c5315 swept C=2..11 at beta=5%
	// gains only ~2.5% over C=2 (optimizer-quality sweep).
	pts, err := ClusterSweep("c5315", 0.05, 2, 11, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Fatalf("points = %d, want 10", len(pts))
	}
	first, last := pts[0].SavingsPct, pts[len(pts)-1].SavingsPct
	for i := 1; i < len(pts); i++ {
		if pts[i].SavingsPct < pts[i-1].SavingsPct-0.5 {
			t.Errorf("savings dropped at C=%d", pts[i].C)
		}
	}
	gain := last - first
	t.Logf("c5315 sweep: C=2 %.2f%% ... C=11 %.2f%% (marginal gain %.2f%%)", first, last, gain)
	if gain < 0 || gain > 8 {
		t.Errorf("marginal gain %.2f%% out of the paper's 'marginal' regime", gain)
	}
}

func TestMultiBlockFigure2(t *testing.T) {
	res, err := MultiBlock(
		[]string{"c1355", "c3540", "c5315", "c7552"},
		[]float64{0.05, 0.08, 0.05, 0.10},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(res.Blocks))
	}
	for _, b := range res.Blocks {
		if len(b.Levels) == 0 || len(b.Levels) > 2 {
			t.Errorf("block %s needs %d pairs, want 1..2", b.Name, len(b.Levels))
		}
	}
	if res.Plan == nil || len(res.Plan.Lines) == 0 {
		t.Fatal("no distribution plan")
	}
	if res.GenAreaPct < 2 || res.GenAreaPct > 3 {
		t.Errorf("generator area %.1f%%, want the paper's 2-3%%", res.GenAreaPct)
	}
}

func TestStudyLayoutRenders(t *testing.T) {
	st, err := StudyLayout("c5315", 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.ASCII, "legend") {
		t.Error("ASCII missing legend")
	}
	if !strings.HasPrefix(st.SVG, "<svg") {
		t.Error("bad SVG")
	}
	if st.Report.AreaOverheadPct >= 6 {
		t.Errorf("area overhead %.2f%%", st.Report.AreaOverheadPct)
	}
}

func TestResolutionAblation(t *testing.T) {
	pts, err := ResolutionAblation(0.12)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].AvgLeakExcess < pts[i-1].AvgLeakExcess {
			t.Error("coarser resolution should lose more leakage")
		}
	}
}

func TestYieldDriver(t *testing.T) {
	st, err := Yield("c1355", 25, 7)
	if err != nil {
		t.Fatal(err)
	}
	before, after := st.YieldPct()
	if after < before {
		t.Errorf("yield dropped: %.0f -> %.0f", before, after)
	}
}

func TestRuntimeComparisonDriver(t *testing.T) {
	rows, err := RuntimeComparison([]string{"c1355"}, 0.05, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].ILPTime <= 0 || rows[0].HeuristicTime <= 0 {
		t.Fatalf("bad runtime rows: %+v", rows)
	}
	if rows[0].SpeedupX < 1 {
		t.Errorf("ILP faster than heuristic? %.1fx", rows[0].SpeedupX)
	}
}

func TestSolutionAccountingConsistent(t *testing.T) {
	res, err := Run(Config{Benchmark: "c3540", Beta: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*core.Solution{res.Single, res.Heuristic} {
		if math.Abs(s.TotalLeakNW-s.ExtraLeakNW-
			(res.Single.TotalLeakNW-res.Single.ExtraLeakNW)) > 1e-6 {
			t.Errorf("%s: base leakage inconsistent", s.Method)
		}
	}
}

// TestRunSolverSelection drives the pluggable-solver seam end to end: each
// registered engine must produce a feasible allocation through Run, report
// which solver ran, and an unknown name must fail cleanly.
func TestRunSolverSelection(t *testing.T) {
	base, err := Run(Config{Benchmark: "c1355", Beta: 0.05, SkipLayout: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.SolverName != "heuristic" {
		t.Errorf("default SolverName = %q, want heuristic", base.SolverName)
	}
	for _, name := range []string{"local", "ilp"} {
		cfg := Config{Benchmark: "c1355", Beta: 0.05, Solver: name, SkipLayout: true}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.SolverName != name {
			t.Errorf("%s: SolverName = %q", name, res.SolverName)
		}
		if res.Heuristic.Method != name {
			t.Errorf("%s: method %q", name, res.Heuristic.Method)
		}
		if name == "ilp" && res.ILPResult == nil {
			t.Error("ilp: no ILP diagnostics surfaced")
		}
		if !res.Problem.CheckTiming(res.Heuristic.Assign) {
			t.Errorf("%s: allocation violates timing", name)
		}
		if res.Heuristic.ExtraLeakNW > base.Heuristic.ExtraLeakNW+1e-9 {
			t.Errorf("%s: leakage %f worse than the heuristic's %f",
				name, res.Heuristic.ExtraLeakNW, base.Heuristic.ExtraLeakNW)
		}
	}
	if _, err := Run(Config{Benchmark: "c1355", Beta: 0.05, Solver: "nope", SkipLayout: true}); err == nil {
		t.Error("unknown solver accepted")
	}
}
