package core

import (
	"math/rand"
	"testing"
)

func TestPruneDominatedPreservesFeasibility(t *testing.T) {
	for _, name := range []string{"c6288", "c1355", "c5315"} {
		p := problem(t, name, 0.05, 3)
		// Snapshot the full constraint set for the oracle.
		full := make([]PathConstraint, len(p.Constraints))
		copy(full, p.Constraints)
		checkFull := func(assign []int) bool {
			for k := range full {
				sigma := 0.0
				for _, rc := range full[k].Rows {
					sigma += rc.DeltaPS[assign[rc.Row]]
				}
				if sigma < full[k].ReqPS-feasTolPS {
					return false
				}
			}
			return true
		}

		dropped := p.PruneDominated()
		t.Logf("%-8s: %d constraints, %d dominated dropped", name, len(full), dropped)

		// Random assignments must agree between full and pruned sets.
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 400; trial++ {
			assign := make([]int, p.N)
			for i := range assign {
				assign[i] = rng.Intn(p.P)
			}
			if p.CheckTiming(assign) != checkFull(assign) {
				t.Fatalf("%s trial %d: pruned and full sets disagree", name, trial)
			}
		}

		// The heuristic still produces a solution feasible under the
		// FULL set.
		sol, err := p.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !checkFull(sol.Assign) {
			t.Fatalf("%s: heuristic on pruned set violates a full constraint", name)
		}
	}
}

func TestPruneDominatedHelpsMultiplier(t *testing.T) {
	p := problem(t, "c6288", 0.05, 3)
	before := p.NumConstraints()
	dropped := p.PruneDominated()
	if dropped == 0 {
		t.Skip("no dominated constraints on this build; nothing to measure")
	}
	if p.NumConstraints() != before-dropped {
		t.Fatalf("count bookkeeping wrong: %d - %d != %d", before, dropped, p.NumConstraints())
	}
	// Idempotent.
	if again := p.PruneDominated(); again != 0 {
		t.Errorf("second prune dropped %d more", again)
	}
}

func TestPruneKeepsAllocatorsEquivalentOnTinyInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 6; trial++ {
		p := tinyProblem(t, rng)
		if p.NumConstraints() == 0 {
			continue
		}
		wantFull, feasFull := bruteForce(p)
		p.PruneDominated()
		wantPruned, feasPruned := bruteForce(p)
		if feasFull != feasPruned {
			t.Fatalf("trial %d: feasibility changed by pruning", trial)
		}
		if feasFull && wantFull != wantPruned {
			t.Fatalf("trial %d: optimum changed by pruning: %f vs %f", trial, wantFull, wantPruned)
		}
	}
}
