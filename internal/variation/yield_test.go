package variation

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/sta"
	"repro/internal/tech"
)

// freshTuner builds a Tuner on a new Analyzer and Allocator over pl.
func freshTuner(tb testing.TB, pl *place.Placement, nom *sta.Timing) *Tuner {
	tb.Helper()
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	al, err := core.NewAllocator(pl, nom)
	if err != nil {
		tb.Fatal(err)
	}
	return NewTuner(NewRetimer(an), al)
}

// yieldStudy runs YieldStream with no per-die consumer over a new Analyzer,
// its nominal run and an Allocator on it.
func yieldStudy(tb testing.TB, pl *place.Placement, proc *tech.Process, m Model, nDies int, seed int64, opts TuneOptions) *YieldStats {
	tb.Helper()
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	nom, err := an.Run(nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	al, err := core.NewAllocator(pl, nom)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := YieldStream(context.Background(), an, al, nom, proc, m, nDies, seed, opts, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// TestYieldStudyParallelMatchesSequential pins the determinism fix: per-die
// seeds are mixed from the die index alone, so the aggregated statistics
// must be identical at any Workers setting (including the default
// one-per-CPU pool).
func TestYieldStudyParallelMatchesSequential(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	dies := 12
	if !testing.Short() {
		dies = 24
	}
	run := func(workers int) *YieldStats {
		return yieldStudy(t, pl, proc, Default(), dies, 77,
			TuneOptions{GuardbandPct: 0.005, Workers: workers})
	}
	seq := run(1)
	for _, workers := range []int{2, 8, 0} {
		if par := run(workers); *par != *seq {
			t.Errorf("Workers=%d diverged from sequential:\nseq: %+v\npar: %+v",
				workers, seq, par)
		}
	}
}

// TestTuneOnMatchesTune checks a Tuner reused across a population of dies
// (one dirty Timing buffer and one allocation Instance) against a fresh
// Tuner per die.
func TestTuneOnMatchesTune(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	nom, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tn := freshTuner(t, pl, nom)
	m := Default()
	opts := TuneOptions{GuardbandPct: 0.005}
	for i := 0; i < 10; i++ {
		die := m.Sample(pl, proc, DieSeed(5, i))
		want, err := TuneOn(freshTuner(t, pl, nom), nom, die, proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TuneOn(tn, nom, die, proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want.BetaActual != got.BetaActual || want.BetaSensed != got.BetaSensed ||
			want.Met != got.Met || want.Reason != got.Reason || want.Iters != got.Iters ||
			want.DcritBeforePS != got.DcritBeforePS || want.DcritAfterPS != got.DcritAfterPS ||
			want.LeakBeforeNW != got.LeakBeforeNW || want.LeakAfterNW != got.LeakAfterNW {
			t.Fatalf("die %d: TuneOn diverged:\nwant %+v\ngot  %+v", i, want, got)
		}
		if (want.Solution == nil) != (got.Solution == nil) {
			t.Fatalf("die %d: solution presence diverged", i)
		}
		if want.Solution != nil {
			if len(want.Solution.Assign) != len(got.Solution.Assign) {
				t.Fatalf("die %d: assignment lengths diverged", i)
			}
			for r := range want.Solution.Assign {
				if want.Solution.Assign[r] != got.Solution.Assign[r] {
					t.Fatalf("die %d: assignment diverged at row %d", i, r)
				}
			}
		}
	}
}

// TestTuneResultConsistency pins the failure-path contract: whatever a
// die's fate — tuned, never allocatable, or failed on a later escalation —
// the reported Solution, DcritAfterPS and LeakAfterNW must describe one
// coherent state (the last applied allocation, or the untouched die). A
// wide variation model forces plenty of beyond-compensation-range dies.
func TestTuneResultConsistency(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	nom, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	al, err := core.NewAllocator(pl, nom)
	if err != nil {
		t.Fatal(err)
	}
	tn := NewTuner(NewRetimer(an), al)
	m := Model{SigmaD2DmV: 60, SigmaSysmV: 30, SigmaRndmV: 20, CorrLenUM: 150}
	opts := TuneOptions{GuardbandPct: 0.005, MaxIters: 2}
	failed := 0
	for i := 0; i < 30; i++ {
		die := m.Sample(pl, proc, DieSeed(13, i))
		r, err := TuneOn(tn, nom, die, proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Solution == nil {
			if r.LeakAfterNW != r.LeakBeforeNW || r.DcritAfterPS != r.DcritBeforePS {
				t.Fatalf("die %d: no solution but after-state diverges from before-state: %+v", i, r)
			}
			if r.Reason != "" {
				failed++
			}
			continue
		}
		if got := die.LeakageNW(pl, proc, r.Solution.Assign); got != r.LeakAfterNW {
			t.Fatalf("die %d: LeakAfterNW %v does not match the reported solution's %v",
				i, r.LeakAfterNW, got)
		}
		tuned, err := die.TimingWithBias(pl, proc, r.Solution.Assign)
		if err != nil {
			t.Fatal(err)
		}
		if tuned.DcritPS != r.DcritAfterPS {
			t.Fatalf("die %d: DcritAfterPS %v does not match the reported solution's %v",
				i, r.DcritAfterPS, tuned.DcritPS)
		}
	}
	if failed == 0 {
		t.Error("variation model too tame: no die exercised the failure path")
	}
}

// TestYieldStudySolverSelection runs the study under each registered
// pluggable solver: statistics must stay deterministic across worker
// counts, and the local solver must never leak more than the heuristic on
// the tuned dies it compensates.
func TestYieldStudySolverSelection(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	dies := 10
	run := func(solver core.Solver, workers int) *YieldStats {
		return yieldStudy(t, pl, proc, Default(), dies, 99,
			TuneOptions{GuardbandPct: 0.005, Workers: workers, Solver: solver})
	}
	local := core.LocalSolver{}
	seq := run(local, 1)
	if par := run(local, 4); *par != *seq {
		t.Errorf("local-solver study diverged across worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
	heur := run(nil, 1)
	if seq.MetAfter < heur.MetAfter {
		t.Errorf("local solver tuned fewer dies (%d) than the heuristic (%d)",
			seq.MetAfter, heur.MetAfter)
	}
	if seq.TunedDies == heur.TunedDies && seq.MeanLeakAfterNW > heur.MeanLeakAfterNW+1e-6 {
		t.Errorf("local solver spent more leakage (%f) than the heuristic (%f)",
			seq.MeanLeakAfterNW, heur.MeanLeakAfterNW)
	}
}

// TestDieSeedProperties: index-derived, seed-sensitive, and collision-free
// over a realistic population.
func TestDieSeedProperties(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 10000; i++ {
		s := DieSeed(1, i)
		if seen[s] {
			t.Fatalf("die seed collision at index %d", i)
		}
		seen[s] = true
	}
	if DieSeed(1, 5) != DieSeed(1, 5) {
		t.Error("DieSeed not deterministic")
	}
	if DieSeed(1, 5) == DieSeed(2, 5) {
		t.Error("DieSeed ignores the study seed")
	}
}
