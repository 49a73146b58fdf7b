package core

import (
	"sort"
	"testing"
)

// heuristicSteps replays the two-pass heuristic step by step — PassOne, the
// PassTwo level walk and the routing reconcile — and runs the final
// refineDown sweep only when refine is set, so ablations can compare the
// allocator with and without it.
func heuristicSteps(tb testing.TB, p *Instance, refine bool) *Solution {
	tb.Helper()
	assign := make([]int, p.N)
	jopt, err := p.passOneInto(assign)
	if err != nil {
		tb.Fatal(err)
	}
	if jopt > 0 {
		order := make([]int, p.N)
		for i := range order {
			order[i] = i
		}
		sort.Stable(&ctSorter{order: order, key: p.rowCriticality(make([]float64, p.N))})
		st := p.newTimingState(assign)
		p.walkDown(st, order, jopt)
		var s heurScratch
		p.reconcilePairs(st, assign, &s)
		if refine {
			p.refineDown(st, assign, &s)
		}
	}
	sol, err := p.solutionFor(assign, "heuristic", false)
	if err != nil {
		tb.Fatal(err)
	}
	return sol
}

func TestRefineDownAblation(t *testing.T) {
	// The cleanup sweep must never hurt and should help on at least one
	// benchmark (it is what closes part of the greedy/ILP gap).
	helped := false
	for _, name := range []string{"c1355", "c3540", "c5315", "c7552"} {
		p := problem(t, name, 0.05, 3)
		full, err := p.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		// The step-by-step replay must be the production heuristic, or
		// the ablation below would compare against something else.
		requireSolutionsEqual(t, full, heuristicSteps(t, p, true), name+" replay")
		bare := heuristicSteps(t, p, false)
		if full.ExtraLeakNW > bare.ExtraLeakNW+1e-9 {
			t.Errorf("%s: refineDown increased leakage %.2f -> %.2f",
				name, bare.ExtraLeakNW, full.ExtraLeakNW)
		}
		if full.ExtraLeakNW < bare.ExtraLeakNW-1e-9 {
			helped = true
		}
		t.Logf("%-8s bare=%.1fnW refined=%.1fnW", name, bare.ExtraLeakNW, full.ExtraLeakNW)
	}
	if !helped {
		t.Error("refineDown never improved a solution; sweep is dead code")
	}
}

// TestLocalNeverWorseThanHeuristic pins why LocalSolver is kept: on the
// paper's ISCAS designs it never leaks more than the two-pass heuristic and
// strictly less somewhere.
func TestLocalNeverWorseThanHeuristic(t *testing.T) {
	better := 0
	for _, name := range []string{"c1355", "c3540", "c5315", "c7552"} {
		for _, beta := range []float64{0.02, 0.05, 0.10} {
			for _, c := range []int{2, 3} {
				p := problem(t, name, beta, c)
				heur, err := p.Solve(nil)
				if err != nil {
					t.Fatal(err)
				}
				loc, err := p.Solve(LocalSolver{})
				if err != nil {
					t.Fatal(err)
				}
				if loc.ExtraLeakNW > heur.ExtraLeakNW+1e-9 {
					t.Errorf("%s beta=%g C=%d: local leaks %.2fnW > heuristic %.2fnW",
						name, beta, c, loc.ExtraLeakNW, heur.ExtraLeakNW)
				}
				if loc.ExtraLeakNW < heur.ExtraLeakNW-1e-9 {
					better++
				}
			}
		}
	}
	t.Logf("local strictly below the heuristic on %d/24 cells", better)
	if better == 0 {
		t.Error("local never beat the heuristic; it would be dead weight")
	}
}

func TestReconcileAblationRespectsRouting(t *testing.T) {
	// Without the reconcile pass the greedy walk may strand more bias
	// pairs than the layout can route; with it, never.
	for _, name := range []string{"c1355", "c3540", "c5315", "c7552", "adder128"} {
		for _, beta := range []float64{0.05, 0.10} {
			p := problem(t, name, beta, 3)
			sol, err := p.Solve(nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := BiasPairs(sol.Assign); got > p.MaxBiasPairs {
				t.Errorf("%s beta=%g: %d bias pairs exceed the routing cap", name, beta, got)
			}
		}
	}
}

func TestRawViolationsCompression(t *testing.T) {
	// Signature merging must compress the multiplier's path explosion
	// substantially (the row abstraction is what keeps the ILP tractable).
	p := problem(t, "c6288", 0.05, 3)
	if p.RawViolations < p.NumConstraints() {
		t.Fatalf("raw %d < merged %d", p.RawViolations, p.NumConstraints())
	}
	t.Logf("c6288: %d violating paths -> %d merged constraints", p.RawViolations, p.NumConstraints())
	ecc := problem(t, "c1355", 0.05, 3)
	t.Logf("c1355: %d violating paths -> %d merged constraints", ecc.RawViolations, ecc.NumConstraints())
}
