// Command fbbflow runs the complete clustered-FBB flow on one or more
// benchmarks: generate, place, time, allocate (heuristic and optionally
// ILP), and check the layout implementation.
//
// -bench accepts a comma-separated list or "all"; with more than one
// benchmark the flows fan out over the flow engine's worker pool
// (-parallel bounds it; 0 = one per CPU) and the reports print in input
// order.
//
// -solver selects the allocation engine for the primary result row: the
// paper's two-pass heuristic (default), the exact ILP, or the local-search
// portfolio ("local") that trades a little runtime for better allocations.
//
// Usage:
//
//	fbbflow -bench c5315 -beta 0.05 -c 3 [-solver heuristic] [-ilp]
//	        [-ilp-nodes 0] [-ilp-workers 0] [-parallel 0]
//	        [-ascii]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fbbflow:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fbbflow", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench      = fs.String("bench", "c5315", "comma-separated benchmark names, or \"all\" ("+strings.Join(repro.Benchmarks(), ", ")+")")
		beta       = fs.Float64("beta", 0.05, "slowdown coefficient to compensate")
		c          = fs.Int("c", 3, "maximum clusters (incl. no-body-bias)")
		solver     = fs.String("solver", "heuristic", "allocation engine ("+strings.Join(core.SolverNames(), ", ")+")")
		runILP     = fs.Bool("ilp", false, "also run the exact ILP allocator")
		ilpNodes   = fs.Int("ilp-nodes", 0, "ILP node budget (0 = solver default; deterministic)")
		ilpWorkers = fs.Int("ilp-workers", 0, "ILP tree-parallelism (0 = one per CPU; never changes the result)")
		parallel   = fs.Int("parallel", 0, "concurrent benchmark flows (0 = one per CPU, 1 = sequential)")
		ascii      = fs.Bool("ascii", false, "print the clustered layout (Figure 3 style)")
		timing     = fs.Bool("timing", false, "print a timing report (slack histogram, worst paths)")
		defOut     = fs.String("def", "", "write the placement to this DEF file (single benchmark only)")
		vOut       = fs.String("verilog", "", "write the mapped netlist to this Verilog file (single benchmark only)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, a clean exit
		}
		return err
	}

	benches := strings.Split(*bench, ",")
	if *bench == "all" {
		benches = repro.Benchmarks()
	}
	if len(benches) > 1 && (*defOut != "" || *vOut != "") {
		return fmt.Errorf("-def/-verilog need a single -bench")
	}

	runner := repro.NewRunner(*parallel)
	results, errs := flow.MapAll(context.Background(), *parallel, len(benches),
		func(_ context.Context, i int) (*repro.Result, error) {
			return repro.RunOn(runner.Engine(), repro.Config{
				Benchmark:    strings.TrimSpace(benches[i]),
				Beta:         *beta,
				MaxClusters:  *c,
				Solver:       *solver,
				RunILP:       *runILP,
				ILPNodeLimit: *ilpNodes,
				ILPWorkers:   *ilpWorkers,
			})
		})

	// One broken benchmark must not discard the completed reports: print
	// every result in input order, annotate the failures, and fail the
	// run if anything failed.
	failed := 0
	for i, res := range results {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if errs[i] != nil {
			failed++
			fmt.Fprintf(stderr, "fbbflow: %s: %v\n", strings.TrimSpace(benches[i]), errs[i])
			continue
		}
		printResult(stdout, res, *beta, *runILP, *ascii, *timing)
	}

	if res := results[0]; errs[0] == nil {
		if *defOut != "" {
			if err := writeArtifact(stdout, *defOut, func(f *os.File) error { return res.Placement.WriteDEF(f) }); err != nil {
				return err
			}
		}
		if *vOut != "" {
			if err := writeArtifact(stdout, *vOut, func(f *os.File) error {
				return netlist.WriteVerilog(f, res.Placement.Design)
			}); err != nil {
				return err
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) failed", failed)
	}
	return nil
}

func printResult(w io.Writer, res *repro.Result, beta float64, runILP, ascii, timing bool) {
	fmt.Fprintf(w, "%s: %d gates (%d FF), %d rows, Dcrit %.0f ps, %d timing constraints at beta=%.0f%%\n",
		res.Design.Name, res.Design.Gates, res.Design.DFFs, res.Rows,
		res.DcritPS, res.Constraints, beta*100)

	t := report.New("", "allocator", "leakage(uW)", "overhead(uW)", "savings", "clusters", "vbs levels", "runtime")
	add := func(label string, s *core.Solution, rt time.Duration) {
		sav := core.Savings(res.Single, s)
		var vbs []string
		for _, v := range res.Problem.VbsOf(s) {
			vbs = append(vbs, fmt.Sprintf("%.2fV", v))
		}
		t.Add(label,
			fmt.Sprintf("%.3f", s.TotalLeakNW/1000),
			fmt.Sprintf("%.3f", s.ExtraLeakNW/1000),
			fmt.Sprintf("%.1f%%", sav),
			fmt.Sprint(s.Clusters),
			strings.Join(vbs, " "),
			rt.Round(time.Microsecond).String(),
		)
	}
	add("single-BB", res.Single, 0)
	add(res.SolverName, res.Heuristic, res.HeuristicTime)
	if res.ILP != nil {
		add("ILP("+res.ILPStatus+")", res.ILP, res.ILPTime)
	} else if runILP {
		t.Add("ILP", "-", "-", "-", "-", "-", res.ILPTime.Round(time.Millisecond).String())
	}
	fmt.Fprint(w, t.String())

	if ir := res.ILPResult; ir != nil {
		fmt.Fprintf(w, "ilp: %s after %d nodes (%s branching, %d strong LPs)",
			ir.Status, ir.Nodes, ir.Branching, ir.StrongLPs)
		if g := ir.Gap(); g > 0 {
			fmt.Fprintf(w, "; gap %.2f%%", g*100)
		}
		fmt.Fprintln(w)
	}

	if res.Layout != nil {
		fmt.Fprintf(w, "layout: %d bias pair(s), max row-util increase %.1f%%, "+
			"%d well boundaries, area overhead %.2f%%\n",
			len(res.Layout.VbsLevels), res.Layout.MaxUtilIncrease*100,
			res.Layout.WellSepBoundaries, res.Layout.AreaOverheadPct)
	}
	if ascii && res.Layout != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, layout.RenderASCII(res.Placement, res.Heuristic.Assign, res.Layout))
	}
	if timing {
		fmt.Fprintln(w)
		fmt.Fprint(w, res.Timing.TextReport(5))
	}
}

func writeArtifact(w io.Writer, path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote", path)
	return nil
}
