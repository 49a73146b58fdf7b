package core

// Constraint dominance pruning. Constraint k is dominated by k' when k' is
// at least as hard to satisfy everywhere: req_k <= req_k' and every
// coefficient of k is >= the matching coefficient of k' (any assignment
// giving k' its requirement gives k at least as much reduction). Dominated
// constraints are redundant for both allocators; dropping them shrinks the
// ILP without changing its feasible set. On the multiplier-class instances
// (hundreds of near-identical array paths) this removes a large fraction of
// the rows the simplex has to carry.

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
