// Yieldtuning runs the system-level experiment that motivates the paper:
// a Monte-Carlo population of dies with die-to-die, spatially correlated
// within-die and random threshold variation is timed, sensed by on-die
// monitors, and the slow dies are pulled back to nominal speed with
// row-clustered FBB ("bring the slow dies back to within the range of
// acceptable specs"). Run with:
//
//	go run ./examples/yieldtuning [-bench c1355] [-dies 200] [-seed 1]
//	                              [-solver heuristic] [-parallel 0]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/tech"
	"repro/internal/variation"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("yieldtuning", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench    = fs.String("bench", "c1355", "benchmark name")
		dies     = fs.Int("dies", 200, "Monte-Carlo population size")
		seed     = fs.Int64("seed", 1, "sampling seed")
		solver   = fs.String("solver", "heuristic", "allocation engine ("+strings.Join(core.SolverNames(), ", ")+")")
		parallel = fs.Int("parallel", 0, "concurrent die tunings (0 = one per CPU, 1 = sequential)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, a clean exit
		}
		return err
	}
	if *dies <= 0 {
		return fmt.Errorf("yieldtuning: -dies must be positive")
	}

	// The flow prefix carries the placement, its nominal timing, and the
	// shared STA analyzer, allocator and solve cache the study runs on.
	pfx, err := flow.New().Prefix(*bench, 0)
	if err != nil {
		return err
	}
	proc := tech.Default45nm()
	model := variation.Default()

	fmt.Fprintf(stdout, "%s: %d gates, nominal Dcrit %.0f ps\n", *bench, len(pfx.Design.Gates), pfx.Timing.DcritPS)
	fmt.Fprintf(stdout, "variation: sigma(d2d)=%.0fmV sigma(sys)=%.0fmV sigma(rnd)=%.0fmV\n\n",
		model.SigmaD2DmV, model.SigmaSysmV, model.SigmaRndmV)

	// Slowdown histogram before tuning.
	fmt.Fprintln(stdout, "die slowdown distribution (before tuning):")
	if err := histogram(stdout, pfx, proc, model, *dies, *seed); err != nil {
		return err
	}

	// An unbounded exact solve per escalation per die would run for ages;
	// a node budget keeps "ilp" bounded — and, unlike the historical
	// wall-clock cap, deterministic at any -parallel.
	s, err := core.ParseSolver(*solver, 50000)
	if err != nil {
		return err
	}
	st, err := variation.YieldStream(context.Background(), pfx.Analyzer, pfx.Allocator, pfx.Timing,
		proc, model, *dies, *seed,
		variation.TuneOptions{GuardbandPct: 0.005, Solver: s, Workers: *parallel, SolveCache: pfx.Solves}, nil)
	if err != nil {
		return err
	}
	before, after := st.YieldPct()
	fmt.Fprintf(stdout, "\nparametric yield : %5.1f%%  ->  %5.1f%%  (%d dies)\n", before, after, st.Dies)
	fmt.Fprintf(stdout, "dies tuned       : %d (mean %.1f allocation iterations, %.1f clusters)\n",
		st.TunedDies, st.MeanTuneIters, st.MeanClustersPerTuned)
	fmt.Fprintf(stdout, "tuning failures  : %d (beyond the FBB compensation range)\n", st.FailedCompensations)
	fmt.Fprintf(stdout, "mean leakage     : %.2f uW -> %.2f uW (+%.1f%% spent on compensation)\n",
		st.MeanLeakBeforeNW/1000, st.MeanLeakAfterNW/1000,
		100*(st.MeanLeakAfterNW-st.MeanLeakBeforeNW)/st.MeanLeakBeforeNW)
	fmt.Fprintf(stdout, "worst die        : %+.1f%% slow\n", st.WorstBetaPct)
	return nil
}

// histogram re-times the same per-index die population the study samples
// (variation.DieSeed), re-using the prefix's analyzer, one sampler and one
// die buffer across all dies; only the critical delay is read, so the
// re-times are the Retimer's Dcrit-only ones.
func histogram(w io.Writer, pfx *flow.Prefix, proc *tech.Process, m variation.Model, dies int, seed int64) error {
	rt := variation.NewRetimer(pfx.Analyzer)
	smp := variation.NewSampler(pfx.Placement, proc, m)
	var die *variation.Die
	bins := make([]int, 9) // <-6, -6..-4, ..., 8..10, >10 (%)
	for i := 0; i < dies; i++ {
		die = smp.SampleInto(die, variation.DieSeed(seed, i))
		dc, err := rt.TimeLight(die)
		if err != nil {
			return err
		}
		beta := (dc/pfx.Timing.DcritPS - 1) * 100
		bin := int((beta + 6) / 2)
		if bin < 0 {
			bin = 0
		}
		if bin >= len(bins) {
			bin = len(bins) - 1
		}
		bins[bin]++
	}
	labels := []string{"< -4%", "-4..-2", "-2..0", "0..2", "2..4", "4..6", "6..8", "8..10", "> 10%"}
	for i, n := range bins {
		fmt.Fprintf(w, "  %-7s %4d %s\n", labels[i], n, strings.Repeat("*", n*60/dies))
	}
	return nil
}
