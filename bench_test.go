package repro

// One benchmark per artifact of the paper's evaluation. Each bench times the
// regenerating computation and prints the regenerated rows/series once, so
// that `go test -bench . -benchmem` doubles as the experiment log recorded
// in EXPERIMENTS.md.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/layout"
	"repro/internal/lp"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/report"
	"repro/internal/sta"
	"repro/internal/tech"
	"repro/internal/variation"
)

// keyedOnce runs a function at most once per string key, with concurrent
// callers of the same key waiting for the winner to finish (unlike a bare
// LoadOrStore flag, which lets losers proceed while the winner still runs).
// The zero value is ready to use. printOnce uses it to print each
// regenerated experiment table exactly once across benchmark iterations.
type keyedOnce struct {
	m sync.Map // key -> *sync.Once
}

// Do runs f if no other call with the same key has run it yet.
func (o *keyedOnce) Do(key string, f func()) {
	v, _ := o.m.LoadOrStore(key, new(sync.Once))
	v.(*sync.Once).Do(f)
}

var benchOnce keyedOnce

func printOnce(key string, f func()) { benchOnce.Do(key, f) }

func TestOnceRunsWinnerOnly(t *testing.T) {
	var o keyedOnce
	var calls atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.Do("print", func() { calls.Add(1) })
			if calls.Load() == 0 {
				t.Error("Do returned before the winner finished")
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("f ran %d times, want 1", calls.Load())
	}
}

// BenchmarkFigure1BodyBiasSweep regenerates Figure 1: simulated inverter
// speed-up and leakage vs body bias.
func BenchmarkFigure1BodyBiasSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := Figure1(0.05)
		if err != nil {
			b.Fatal(err)
		}
		_ = pts
	}
	b.StopTimer()
	printOnce("fig1", func() {
		pts, _ := Figure1(0.05)
		t := report.New("\n[Figure 1] inverter vs body bias (45nm, simulated)",
			"vbs(V)", "speedup", "leakage(x)")
		for _, p := range pts {
			t.Add(fmt.Sprintf("%.2f", p.Vbs),
				fmt.Sprintf("%.1f%%", p.Speedup*100),
				fmt.Sprintf("%.2f", p.LeakFactor))
		}
		fmt.Print(t.String())
	})
}

// table1Bench runs one Table 1 benchmark's heuristic flow per iteration and
// prints the full row (with a budgeted ILP for designs the paper solved).
func table1Bench(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Benchmark: name, Beta: 0.05, SkipLayout: true})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	b.StopTimer()
	printOnce("table1:"+name, func() {
		rows, err := NewRunner(1).Table1(Table1Options{
			Benchmarks: []string{name},
		})
		if err != nil {
			fmt.Println("table1:", err)
			return
		}
		t := report.New("\n[Table 1] "+name,
			"beta", "singleBB(uW)", "ILP C=2", "ILP C=3", "heur C=2", "heur C=3", "constr")
		cellOf := func(valid, proven bool, v float64) string {
			if !valid {
				return "-"
			}
			s := fmt.Sprintf("%.2f%%", v)
			if !proven {
				s += "*"
			}
			return s
		}
		for _, r := range rows {
			if r.Err != "" {
				fmt.Println("table1:", name, r.Err)
				continue
			}
			t.Add(fmt.Sprintf("%.0f%%", r.BetaPct),
				fmt.Sprintf("%.3f", r.SingleBBuW),
				cellOf(r.ILPValidC2, r.ILPProvenC2, r.ILPSavC2),
				cellOf(r.ILPValidC3, r.ILPProvenC3, r.ILPSavC3),
				fmt.Sprintf("%.2f%%", r.HeurSavC2),
				fmt.Sprintf("%.2f%%", r.HeurSavC3),
				fmt.Sprint(r.Constraints))
		}
		fmt.Print(t.String())
	})
}

func BenchmarkTable1C1355(b *testing.B)       { table1Bench(b, "c1355") }
func BenchmarkTable1C3540(b *testing.B)       { table1Bench(b, "c3540") }
func BenchmarkTable1C5315(b *testing.B)       { table1Bench(b, "c5315") }
func BenchmarkTable1C7552(b *testing.B)       { table1Bench(b, "c7552") }
func BenchmarkTable1Adder128(b *testing.B)    { table1Bench(b, "adder128") }
func BenchmarkTable1C6288(b *testing.B)       { table1Bench(b, "c6288") }
func BenchmarkTable1Industrial1(b *testing.B) { table1Bench(b, "industrial1") }
func BenchmarkTable1Industrial2(b *testing.B) { table1Bench(b, "industrial2") }
func BenchmarkTable1Industrial3(b *testing.B) { table1Bench(b, "industrial3") }

// BenchmarkClusterCountSweepC5315 regenerates the in-text experiment:
// C = 2..11 on c5315 at beta = 5% gains only ~2.5%.
func BenchmarkClusterCountSweepC5315(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewRunner(1).ClusterSweep("c5315", 0.05, 2, 11, false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printOnce("sweep", func() {
		pts, err := NewRunner(1).ClusterSweep("c5315", 0.05, 2, 11, true)
		if err != nil {
			fmt.Println("sweep:", err)
			return
		}
		t := report.New("\n[in-text] c5315 cluster sweep, beta=5% (ILP-quality)", "C", "savings")
		for _, p := range pts {
			t.Add(fmt.Sprint(p.C), fmt.Sprintf("%.2f%%", p.SavingsPct))
		}
		fmt.Print(t.String())
		fmt.Printf("marginal gain C=2 -> C=11: %.2f%% (paper: 2.56%%)\n",
			pts[len(pts)-1].SavingsPct-pts[0].SavingsPct)
	})
}

// BenchmarkRuntimeHeuristic and BenchmarkRuntimeILP together regenerate the
// in-text runtime comparison (heuristic ~1000x faster on large designs).
func BenchmarkRuntimeHeuristic(b *testing.B) {
	res, err := Run(Config{Benchmark: "c6288", Beta: 0.05, SkipLayout: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Problem.Solve(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuntimeILP(b *testing.B) {
	res, err := Run(Config{Benchmark: "c1355", Beta: 0.05, SkipLayout: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := res.Problem.SolveILP(core.ILPOptions{
			WarmStart: res.Heuristic,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printOnce("runtime", func() {
		rows, err := NewRunner(1).RuntimeComparison([]string{"c1355", "c3540", "c5315"}, 0.05)
		if err != nil {
			fmt.Println("runtime:", err)
			return
		}
		t := report.New("\n[in-text] allocator runtimes",
			"benchmark", "constr", "heuristic", "ILP", "ILP/heur", "ILP status")
		for _, r := range rows {
			t.Add(r.Benchmark, fmt.Sprint(r.Constraints),
				r.HeuristicTime.Round(time.Microsecond).String(),
				r.ILPTime.Round(time.Millisecond).String(),
				fmt.Sprintf("%.0fx", r.SpeedupX), r.ILPStatus)
		}
		fmt.Print(t.String())
	})
}

// BenchmarkSolveILP times a complete proven-optimal exact solve on the
// Table 1 circuits the paper's lp_solve handled, from a heuristic warm
// start.
func BenchmarkSolveILP(b *testing.B) {
	for _, name := range []string{"c1355", "c3540", "c5315"} {
		res, err := Run(Config{Benchmark: name, Beta: 0.05, SkipLayout: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/full", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol, ir, err := res.Problem.SolveILP(core.ILPOptions{WarmStart: res.Heuristic})
				if err != nil {
					b.Fatal(err)
				}
				if sol == nil || !sol.Proven {
					b.Fatalf("not proven: %v", ir.Status)
				}
				b.ReportMetric(float64(ir.Nodes), "nodes")
			}
		})
	}
}

// BenchmarkFigure3LayoutOverheads regenerates the layout-style analysis of
// Figure 3: contact-cell utilization increase and well-separation bounds.
func BenchmarkFigure3LayoutOverheads(b *testing.B) {
	res, err := Run(Config{Benchmark: "c5315", Beta: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.Apply(res.Placement, res.Heuristic.Assign, layout.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printOnce("fig3", func() {
		rep := res.Layout
		fmt.Printf("\n[Figure 3] c5315 layout: %d bias pairs, max row-util increase %.1f%% "+
			"(paper ~6%%), %d well boundaries, area overhead %.2f%% (paper <5%%)\n",
			len(rep.VbsLevels), rep.MaxUtilIncrease*100,
			rep.WellSepBoundaries, rep.AreaOverheadPct)
	})
}

// BenchmarkWellSeparationArea sweeps the Table 1 suite and reports the area
// overhead of well separation (the paper: always below 5%).
func BenchmarkWellSeparationArea(b *testing.B) {
	type fixture struct {
		pl     *place.Placement
		assign []int
	}
	var fixtures []fixture
	names := []string{"c1355", "c3540", "c5315", "c7552", "c6288"}
	for _, n := range names {
		res, err := Run(Config{Benchmark: n, Beta: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		fixtures = append(fixtures, fixture{res.Placement, res.Heuristic.Assign})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fixtures {
			if _, err := layout.Apply(f.pl, f.assign, layout.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	printOnce("wellsep", func() {
		t := report.New("\n[in-text] well-separation area overhead", "benchmark", "boundaries", "overhead")
		for i, f := range fixtures {
			rep, _ := layout.Apply(f.pl, f.assign, layout.Options{})
			t.Add(names[i], fmt.Sprint(rep.WellSepBoundaries), fmt.Sprintf("%.2f%%", rep.AreaOverheadPct))
		}
		fmt.Print(t.String())
	})
}

// BenchmarkFigure6PlacedRouted regenerates Figure 6: the placed-and-routed
// c5315 with two vbs pairs through the die centre (SVG render).
func BenchmarkFigure6PlacedRouted(b *testing.B) {
	res, err := Run(Config{Benchmark: "c5315", Beta: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var svg string
	for i := 0; i < b.N; i++ {
		svg = layout.RenderSVG(res.Placement, res.Heuristic.Assign, res.Layout)
	}
	b.StopTimer()
	printOnce("fig6", func() {
		fmt.Printf("\n[Figure 6] c5315 placed+routed SVG: %d bytes, %d rows, %d rail tracks\n",
			len(svg), res.Placement.NumRows, res.Layout.BiasRailTracks)
	})
}

// BenchmarkFigure2MultiBlockTuning regenerates the Figure 2 scenario.
func BenchmarkFigure2MultiBlockTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewRunner(1).MultiBlock(
			[]string{"c1355", "c3540", "c5315", "c7552"},
			[]float64{0.05, 0.08, 0.05, 0.10}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printOnce("fig2", func() {
		res, _ := NewRunner(1).MultiBlock(
			[]string{"c1355", "c3540", "c5315", "c7552"},
			[]float64{0.05, 0.08, 0.05, 0.10})
		fmt.Printf("\n[Figure 2] central generator: %d blocks, %d routed pairs, %d distinct voltages\n",
			len(res.Blocks), len(res.Plan.Lines), res.DistinctLevels)
	})
}

// BenchmarkYieldTuningStudy runs the Monte-Carlo post-silicon tuning study
// (the motivating system experiment).
func BenchmarkYieldTuningStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewRunner(0).Yield("c1355", 25, 7); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printOnce("yield", func() {
		st, _ := NewRunner(0).Yield("c1355", 100, 7)
		before, after := st.YieldPct()
		fmt.Printf("\n[extension] yield study (100 dies, c1355): %.0f%% -> %.0f%%, "+
			"mean leak %.2f -> %.2f uW\n",
			before, after, st.MeanLeakBeforeNW/1000, st.MeanLeakAfterNW/1000)
	})
}

// BenchmarkGeneratorResolutionAblation quantifies the 50mV resolution
// assumption against 25/32/100mV generators.
func BenchmarkGeneratorResolutionAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ResolutionAblation(0.12); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printOnce("resolution", func() {
		pts, _ := ResolutionAblation(0.12)
		t := report.New("\n[ablation] generator resolution", "step(mV)", "levels", "avg leak excess(x)")
		for _, p := range pts {
			t.Add(fmt.Sprintf("%.0f", p.StepMV), fmt.Sprint(p.Levels), fmt.Sprintf("%.3f", p.AvgLeakExcess))
		}
		fmt.Print(t.String())
	})
}

// --- component micro-benchmarks -----------------------------------------

// BenchmarkComponentPlacement places at automatic rows and, for the long
// rows refinement walks, at c6288 forced to 3 rows.
func BenchmarkComponentPlacement(b *testing.B) {
	lib := cell.Default()
	for _, tc := range []struct {
		name      string
		bench     string
		forceRows int
	}{
		{"c6288", "c6288", 0},
		{"c5315", "c5315", 0},
		{"c6288-rows3", "c6288", 3},
	} {
		b.Run(tc.name, func(b *testing.B) {
			d, err := gen.Build(tc.bench, lib)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := place.Place(d, lib, place.Options{ForceRows: tc.forceRows}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkComponentSTA(b *testing.B) {
	lib := cell.Default()
	d, err := gen.Build("c6288", lib)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := place.Place(d, lib, place.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sta.Analyze(pl, sta.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComponentCheckTiming(b *testing.B) {
	res, err := Run(Config{Benchmark: "c6288", Beta: 0.05, SkipLayout: true})
	if err != nil {
		b.Fatal(err)
	}
	assign := res.Heuristic.Assign
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Problem.CheckTiming(assign)
	}
}

// BenchmarkComponentAllocatorSolveAt tracks the batched allocation engine
// on the paper's in-text design: one shared core.Allocator, one reused
// Instance, a full materialize + heuristic solve per iteration (the unit of
// work every tuning-loop escalation and every experiment grid cell pays).
func BenchmarkComponentAllocatorSolveAt(b *testing.B) {
	pfx, err := flow.New().Prefix("c5315", 0)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Beta: 0.05, MaxClusters: 3}
	inst, err := pfx.Allocator.At(opts, nil) // warm the buffers
	if err == nil {
		_, err = inst.Solve(nil)
	}
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inst, err = pfx.Allocator.At(opts, inst); err != nil {
			b.Fatal(err)
		}
		if _, err := inst.Solve(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComponentLogicSim(b *testing.B) {
	lib := cell.Default()
	d, err := gen.Build("c6288", lib)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := netlist.NewSimulator(d)
	if err != nil {
		b.Fatal(err)
	}
	sim.SetUintInputs("a", 16, 12345)
	sim.SetUintInputs("b", 16, 54321)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Eval()
	}
}

func BenchmarkComponentLPSolve(b *testing.B) {
	res, err := Run(Config{Benchmark: "c1355", Beta: 0.05, SkipLayout: true})
	if err != nil {
		b.Fatal(err)
	}
	model, _ := res.Problem.BuildILP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Solve(&model.Problem); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComponentVariationSample(b *testing.B) {
	lib := cell.Default()
	d, err := gen.Build("industrial1", lib)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := place.Place(d, lib, place.Options{})
	if err != nil {
		b.Fatal(err)
	}
	proc := tech.Default45nm()
	m := variation.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Sample(pl, proc, int64(i))
	}
}
