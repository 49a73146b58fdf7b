// Command table1 regenerates the paper's Table 1: for each benchmark and
// slowdown coefficient, the single-voltage baseline leakage, the ILP and
// heuristic savings at C=2 and C=3, and the number of timing constraints.
//
// The ILP is skipped on designs above -ilp-gates (the paper likewise reports
// no ILP results for Industrial2/3, where lp_solve did not converge).
// -solver swaps the allocation engine behind the non-ILP columns (e.g.
// "local" re-evaluates the table with the local-search portfolio solver).
//
// Cells run on the flow engine: each benchmark's gen->place->STA prefix is
// computed once and shared across all (beta, C) points, and -parallel bounds
// how many cells run concurrently (0 = one per CPU, 1 = sequential). Every
// column is byte-identical at any -parallel: the ILP runs under a node
// budget (-ilp-nodes), which is deterministic regardless of core
// contention; no wall-clock limit exists. A failing cell is reported on
// stderr and the completed rows still print; the exit status is non-zero
// if any cell failed.
//
// Usage:
//
//	table1 [-benchmarks c1355,c3540] [-betas 0.05,0.10] [-solver heuristic]
//	       [-ilp-nodes 50000] [-ilp-gates 5000]
//	       [-parallel 0] [-csv]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchList = fs.String("benchmarks", "", "comma-separated benchmark names (default: all)")
		betaList  = fs.String("betas", "0.05,0.10", "comma-separated slowdown coefficients")
		ilpNodes  = fs.Int("ilp-nodes", 0, "ILP node budget per instance (0 = default 50000; deterministic)")
		ilpGates  = fs.Int("ilp-gates", 5000, "skip the ILP above this gate count")
		solver    = fs.String("solver", "heuristic", "allocation engine for the non-ILP columns ("+strings.Join(core.SolverNames(), ", ")+")")
		parallel  = fs.Int("parallel", 0, "concurrent table cells (0 = one per CPU, 1 = sequential)")
		csv       = fs.Bool("csv", false, "emit CSV")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, a clean exit
		}
		return err
	}

	opts := repro.Table1Options{
		ILPNodeLimit: *ilpNodes,
		ILPGateLimit: *ilpGates,
		Solver:       *solver,
	}
	if *benchList != "" {
		opts.Benchmarks = strings.Split(*benchList, ",")
	}
	for _, s := range strings.Split(*betaList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad beta: %s", s)
		}
		opts.Betas = append(opts.Betas, v)
	}

	rows, err := repro.NewRunner(*parallel).Table1(opts)
	if err != nil {
		return err
	}

	t := report.New(
		"Table 1 — leakage savings of clustered FBB vs block-level single-voltage FBB",
		"benchmark", "gates", "rows", "beta", "singleBB(uW)",
		"ILP C=2", "ILP C=3", "heur C=2", "heur C=3", "constr")
	ilpCell := func(valid, proven bool, v float64) string {
		if !valid {
			return "-"
		}
		mark := ""
		if !proven {
			mark = "*"
		}
		return fmt.Sprintf("%.2f%%%s", v, mark)
	}
	for _, r := range rows {
		if r.Err != "" {
			continue // annotated on stderr below; the good rows still print
		}
		t.Add(
			r.Benchmark,
			fmt.Sprint(r.Gates),
			fmt.Sprint(r.Rows),
			fmt.Sprintf("%.0f%%", r.BetaPct),
			fmt.Sprintf("%.3f", r.SingleBBuW),
			ilpCell(r.ILPValidC2, r.ILPProvenC2, r.ILPSavC2),
			ilpCell(r.ILPValidC3, r.ILPProvenC3, r.ILPSavC3),
			fmt.Sprintf("%.2f%%", r.HeurSavC2),
			fmt.Sprintf("%.2f%%", r.HeurSavC3),
			fmt.Sprint(r.Constraints),
		)
	}
	failed := 0
	for _, r := range rows {
		if r.Err != "" {
			failed++
			fmt.Fprintf(stderr, "table1: %s beta=%g%%: %s\n", r.Benchmark, r.BetaPct, r.Err)
		}
	}
	if *csv {
		fmt.Fprint(stdout, t.CSV())
	} else {
		fmt.Fprint(stdout, t.String())
		fmt.Fprintln(stdout, "\n* incumbent at the search budget (optimality not proven); - not run (paper: did not converge)")
	}
	if failed > 0 {
		// Partial rows printed above, but the run is not clean.
		return fmt.Errorf("%d cell(s) failed", failed)
	}
	return nil
}
