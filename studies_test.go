package repro

import (
	"context"
	"time"

	"repro/internal/bbgen"
	"repro/internal/flow"
	"repro/internal/tech"
	"repro/internal/variation"
)

// The experiment drivers below regenerate studies that only the tests and
// benchmarks of this package run; no command or example calls them.

// RuntimeRow compares allocator runtimes on one design (the paper reports
// ILP runtimes "comparable" on small designs and >1000x the heuristic's on
// large ones).
type RuntimeRow struct {
	Benchmark     string
	Constraints   int
	HeuristicTime time.Duration
	ILPTime       time.Duration
	SpeedupX      float64
	ILPStatus     string
}

// RuntimeComparison measures both allocators, the exact one under Table
// 1's node budget. The allocator wall-clock times are the measurement, so
// the cells always run one at a time regardless of the Runner's
// parallelism (CPU contention would inflate them); the pool still provides
// cancellation and the engine still shares the prefixes with the other
// drivers.
func (r *Runner) RuntimeComparison(names []string, beta float64) ([]RuntimeRow, error) {
	return flow.Map(r.context(), 1, len(names),
		func(_ context.Context, i int) (RuntimeRow, error) {
			res, err := RunOn(r.eng, Config{
				Benchmark:    names[i],
				Beta:         beta,
				RunILP:       true,
				ILPNodeLimit: ilpNodeBudget,
				SkipLayout:   true,
			})
			if err != nil {
				return RuntimeRow{}, err
			}
			row := RuntimeRow{
				Benchmark:     names[i],
				Constraints:   res.Constraints,
				HeuristicTime: res.HeuristicTime,
				ILPTime:       res.ILPTime,
				ILPStatus:     res.ILPStatus,
			}
			if res.HeuristicTime > 0 {
				row.SpeedupX = float64(res.ILPTime) / float64(res.HeuristicTime)
			}
			return row, nil
		})
}

// Yield runs the Monte-Carlo post-silicon tuning study on a benchmark,
// tuning dies concurrently on r's worker pool over the cached placement.
// The prefix cache supplies the nominal timing, the reusable STA analyzer,
// and the reusable allocation engine; under them the per-die loop is the
// vectorized pipeline — buffer-reusing sampling, Dcrit-only light re-times,
// precomputed-table leakage and memoized allocations — so a die costs a
// handful of array passes, not a graph rebuild.
func (r *Runner) Yield(name string, dies int, seed int64) (*variation.YieldStats, error) {
	pfx, err := r.eng.Prefix(name, 0)
	if err != nil {
		return nil, err
	}
	return variation.YieldStream(r.context(), pfx.Analyzer, pfx.Allocator, pfx.Timing,
		tech.Default45nm(), variation.Default(), dies, seed,
		variation.TuneOptions{GuardbandPct: 0.005, Workers: r.parallel, SolveCache: pfx.Solves}, nil)
}

// ResolutionPoint is one row of the generator-resolution ablation.
type ResolutionPoint struct {
	StepMV        float64
	Levels        int
	AvgLeakExcess float64 // mean leakage-factor excess vs a continuous generator
}

// ResolutionAblation quantifies the paper's 50 mV resolution assumption
// against the 32 mV of [8] and coarser alternatives.
func ResolutionAblation(betaMax float64) ([]ResolutionPoint, error) {
	if betaMax <= 0 {
		betaMax = 0.12
	}
	p := tech.Default45nm()
	var pts []ResolutionPoint
	for _, step := range []float64{0.025, 0.032, 0.05, 0.1} {
		grid := tech.BiasGrid{StepV: step, MaxV: 0.5}
		loss, err := bbgen.ResolutionLoss(p, grid, betaMax, 400)
		if err != nil {
			return nil, err
		}
		pts = append(pts, ResolutionPoint{
			StepMV:        step * 1000,
			Levels:        grid.NumLevels(),
			AvgLeakExcess: loss,
		})
	}
	return pts, nil
}
