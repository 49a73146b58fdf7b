package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/place"
	"repro/internal/sta"
)

// builtinTimed generates, places and times a built-in benchmark.
func builtinTimed(tb testing.TB, lib *cell.Library, name string) (*place.Placement, *sta.Timing) {
	tb.Helper()
	d, err := gen.Build(name, lib)
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := place.Place(d, lib, place.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tm, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return pl, tm
}

// requireCriticalityMatches compares rowCriticality against the path-major
// reference walk bit for bit, writing into a buffer dirtied with NaNs so a
// row the row-major pass skipped cannot pass.
func requireCriticalityMatches(t *testing.T, inst *Instance, label string) {
	t.Helper()
	got := make([]float64, inst.N)
	for i := range got {
		got[i] = math.NaN()
	}
	got = inst.rowCriticality(got)
	want := referenceRowCriticality(inst, make([]float64, inst.N))
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: row %d criticality %v (%#x), reference %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestRowCriticalityMatchesReference pins the row-major criticality pass to
// the path-major walk over Π on every built-in benchmark across the slowdown
// range — β = 0 and a slowdown that puts the critical path half a picosecond
// over Dcrit exercise the one-picosecond slack floor — and on buildProblem
// instances of random designs, whose runs the reference builds directly
// from the paths.
func TestRowCriticalityMatchesReference(t *testing.T) {
	lib := cell.Default()
	for _, name := range gen.Names() {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && (name == "industrial2" || name == "industrial3") {
				t.Skip("the two largest designs take most of the time; -short covers the other seven")
			}
			pl, tm := builtinTimed(t, lib, name)
			al, err := NewAllocator(pl, tm)
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceCritRuns(pl, tm)
			if !slices.Equal(al.crit.start, ref.start) || !slices.Equal(al.crit.runs, ref.runs) {
				t.Fatal("allocator's criticality runs differ from the reference construction")
			}
			var inst *Instance
			for _, beta := range []float64{0, 1e-4, 0.003, 0.05, 0.1, 0.3, 0.5 / tm.DcritPS} {
				inst, err = al.At(Options{Beta: max(beta, 1e-4)}, inst)
				if err != nil {
					t.Fatal(err)
				}
				inst.Beta = beta // rowCriticality reads only Beta and the timing
				requireCriticalityMatches(t, inst, name)
			}
		})
	}
	t.Run("buildProblem", func(t *testing.T) {
		for trial := 0; trial < 12; trial++ {
			pl, tm := randomTimed(t, lib, int64(300+trial))
			for _, beta := range []float64{1e-4, 0.05, 0.3} {
				inst, err := buildProblem(pl, tm, Options{Beta: beta})
				if err != nil {
					t.Fatal(err)
				}
				requireCriticalityMatches(t, inst, "buildProblem")
			}
		}
	})
}
