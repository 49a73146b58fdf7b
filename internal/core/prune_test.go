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

// Constraint dominance pruning. Constraint k is dominated by k' when k' is
// at least as hard to satisfy everywhere: req_k <= req_k' and every
// coefficient of k is >= the matching coefficient of k' (any assignment
// giving k' its requirement gives k at least as much reduction). Dominated
// constraints are redundant for both allocators; dropping them shrinks the
// ILP without changing its feasible set. On the multiplier-class instances
// (hundreds of near-identical array paths) this removes a large fraction of
// the rows the simplex has to carry. No solve path prunes yet, so the
// method lives here with its tests until one measures a gain from it.

// PruneDominated removes dominated constraints in place and returns how many
// were dropped. The comparison is limited to constraint pairs with identical
// row sets (coefficient-wise comparison is only sound when neither has a
// row the other lacks on the >= side; equal row sets are the common case
// produced by the array structures).
func (inst *Instance) PruneDominated() int {
	type bucketKey string
	buckets := map[bucketKey][]int{}
	for k := range inst.Constraints {
		key := make([]byte, 0, len(inst.Constraints[k].Rows)*3)
		for _, rc := range inst.Constraints[k].Rows {
			key = append(key, byte(rc.Row), byte(rc.Row>>8), ',')
		}
		buckets[bucketKey(key)] = append(buckets[bucketKey(key)], k)
	}

	drop := make([]bool, len(inst.Constraints))
	dropped := 0
	for _, ks := range buckets {
		if len(ks) < 2 {
			continue
		}
		for a := 0; a < len(ks); a++ {
			if drop[ks[a]] {
				continue
			}
			for b := 0; b < len(ks); b++ {
				if a == b || drop[ks[b]] || drop[ks[a]] {
					continue
				}
				if dominates(&inst.Constraints[ks[b]], &inst.Constraints[ks[a]]) {
					drop[ks[a]] = true
					dropped++
				}
			}
		}
	}
	if dropped == 0 {
		return 0
	}
	kept := inst.Constraints[:0]
	for k := range inst.Constraints {
		if !drop[k] {
			kept = append(kept, inst.Constraints[k])
		}
	}
	inst.Constraints = kept
	inst.reindexRows()
	return dropped
}

// dominates reports whether satisfying hard implies satisfying easy, for
// constraints over the same row set.
func dominates(hard, easy *PathConstraint) bool {
	if easy.ReqPS > hard.ReqPS {
		return false
	}
	for i := range hard.Rows {
		hr, er := &hard.Rows[i], &easy.Rows[i]
		if hr.Row != er.Row {
			return false
		}
		for j := range hr.DeltaPS {
			if er.DeltaPS[j] < hr.DeltaPS[j]-1e-12 {
				return false
			}
		}
	}
	return true
}

// reindexRows rebuilds the row-to-constraint index after pruning.
func (inst *Instance) reindexRows() {
	for i := range inst.Involved {
		inst.Involved[i] = false
	}
	inst.rowConsStart, inst.rowConsRefs = buildRowCons(inst.N, inst.Constraints, inst.Involved,
		inst.rowConsStart, inst.rowConsRefs)
}

// BiasPairs returns the number of distinct non-NBB levels of an assignment,
// i.e. the (vbsn, vbsp) pairs the layout must route.
func BiasPairs(assign []int) int {
	seen := map[int]struct{}{}
	for _, j := range assign {
		if j != 0 {
			seen[j] = struct{}{}
		}
	}
	return len(seen)
}
