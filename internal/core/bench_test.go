package core

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/place"
	"repro/internal/sta"
)

// benchTimed generates, places and times a named benchmark.
func benchTimed(b *testing.B, name string) (*place.Placement, *sta.Timing) {
	b.Helper()
	l := cell.Default()
	d, err := gen.Build(name, l)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := place.Place(d, l, place.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tm, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return pl, tm
}

var benchAllocNames = []string{"c5315", "c6288", "industrial1"}

// BenchmarkBuildProblemSolve is the unbatched per-solve path: a fresh
// Allocator, a fresh Instance and a heuristic solve for every (beta, C)
// point.
func BenchmarkBuildProblemSolve(b *testing.B) {
	for _, name := range benchAllocNames {
		b.Run(name, func(b *testing.B) {
			pl, tm := benchTimed(b, name)
			opts := Options{Beta: 0.05, MaxClusters: 3}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				al, err := NewAllocator(pl, tm)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := al.SolveAt(opts, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllocatorSolveAt is the batched path: shared Allocator, reused
// Instance, scratch-buffer heuristic — the engine variation.TuneOn and the
// experiment grids run on. Repeat solves must stay at 0 allocs/op.
func BenchmarkAllocatorSolveAt(b *testing.B) {
	for _, name := range benchAllocNames {
		b.Run(name, func(b *testing.B) {
			pl, tm := benchTimed(b, name)
			al, err := NewAllocator(pl, tm)
			if err != nil {
				b.Fatal(err)
			}
			opts := Options{Beta: 0.05, MaxClusters: 3}
			_, inst, err := al.SolveAt(opts, nil, nil) // warm the buffers
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := al.SolveAt(opts, nil, inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllocatorMaterialize isolates problem materialization (no
// solve) on a reused Instance.
func BenchmarkAllocatorMaterialize(b *testing.B) {
	pl, tm := benchTimed(b, "c5315")
	al, err := NewAllocator(pl, tm)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Beta: 0.05, MaxClusters: 3}
	inst, err := al.At(opts, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := al.At(opts, inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalSolver tracks the portfolio solver's cost on the paper's
// in-text design.
func BenchmarkLocalSolver(b *testing.B) {
	pl, tm := benchTimed(b, "c5315")
	al, err := NewAllocator(pl, tm)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := al.At(Options{Beta: 0.05, MaxClusters: 3}, nil)
	if err != nil {
		b.Fatal(err)
	}
	ls := LocalSolver{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Solve(ls); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeuristicRefineAblation times the heuristic without its final
// refineDown sweep on c1355 and reports the leakage savings with the sweep
// off and on.
func BenchmarkHeuristicRefineAblation(b *testing.B) {
	pl, tm := benchTimed(b, "c1355")
	al, err := NewAllocator(pl, tm)
	if err != nil {
		b.Fatal(err)
	}
	p, err := al.At(Options{Beta: 0.05}, nil)
	if err != nil {
		b.Fatal(err)
	}
	single, err := p.SingleBB()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heuristicSteps(b, p, false)
	}
	b.StopTimer()
	b.ReportMetric(Savings(single, heuristicSteps(b, p, false)), "off_savings_pct")
	b.ReportMetric(Savings(single, heuristicSteps(b, p, true)), "on_savings_pct")
}
