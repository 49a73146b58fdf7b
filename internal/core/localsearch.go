package core

import (
	"errors"
	"math/rand"
	"sort"
)

// LocalSolver is the quality-vs-speed middle ground the paper could not
// explore between its two allocators: a small portfolio of
// criticality-seeded greedy walks (the heuristic's PassTwo under randomly
// perturbed row rankings) each followed by randomized repair sweeps that
// trade a row's drop against another row's promotion whenever the exchange
// cuts leakage, keeping the cheapest feasible allocation found. Every
// restart derives its RNG from the restart index alone, so results are
// deterministic and independent of scheduling or parallelism.
type LocalSolver struct{}

const (
	// localRestarts is the number of greedy walks. Restart 0 replays the
	// unperturbed criticality ranking, so the portfolio never starts worse
	// than the plain heuristic's walk.
	localRestarts = 4
	// localSweeps bounds the repair sweeps per restart; a sweep without an
	// accepted move ends the search early.
	localSweeps = 3
)

// restartSeed mixes the restart index through the splitmix64 finalizer,
// decorrelating the per-restart streams.
func restartSeed(restart int) int64 {
	z := uint64(restart) * 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

func (s LocalSolver) solve(inst *Instance) (*Solution, error) {
	assign := make([]int, inst.N)
	jopt, err := inst.passOneInto(assign)
	if err != nil {
		return nil, err
	}
	if jopt == 0 {
		return inst.solutionFor(assign, "local", false)
	}

	ct := inst.rowCriticality(make([]float64, inst.N))
	key := make([]float64, inst.N)
	order := make([]int, inst.N)
	sigma := make([]float64, len(inst.Constraints))
	var scratch heurScratch
	var best *Solution
	for r := 0; r < localRestarts; r++ {
		rng := rand.New(rand.NewSource(restartSeed(r)))
		for i := range key {
			if r == 0 {
				key[i] = ct[i]
			} else {
				key[i] = ct[i] * (0.5 + rng.Float64())
			}
		}
		for i := range order {
			order[i] = i
		}
		sorter := ctSorter{order: order, key: key}
		sort.Stable(&sorter)

		for i := range assign {
			assign[i] = jopt
		}
		var st timingState
		inst.initTimingState(&st, assign, sigma)
		if !st.feasible() {
			return nil, errors.New("core: PassOne solution fails incremental check")
		}
		inst.walkDown(&st, order, jopt)
		inst.reconcilePairs(&st, assign, &scratch)
		s.repair(inst, &st, assign, rng)
		inst.refineDown(&st, assign, &scratch)
		if !st.feasible() {
			continue // defensive; the passes above preserve feasibility
		}
		sol, err := inst.solutionFor(assign, "local", false)
		if err != nil {
			return nil, err
		}
		if best == nil || sol.ExtraLeakNW < best.ExtraLeakNW {
			best = sol
		}
	}
	if best == nil {
		return nil, errors.New("core: local search found no feasible allocation")
	}
	return best, nil
}

// repair runs randomized exchange sweeps on a feasible assignment: drop a
// random row to a lower level already in use and, when that breaks timing,
// promote the most helpful row of a violated constraint to the vacated
// level — accepting the pair only when it is feasible and strictly cheaper.
// Rows only ever move between levels already in use, so the cluster and
// bias-pair caps can never be exceeded (levels may empty; none appear).
func (LocalSolver) repair(inst *Instance, st *timingState, assign []int, rng *rand.Rand) {
	if inst.N == 0 || inst.P < 2 {
		return
	}
	used := make([]int, inst.P)
	for _, j := range assign {
		used[j]++
	}
	viol := make([]int, 0, len(inst.Constraints))
	tries := 2 * inst.N
	for sw := 0; sw < localSweeps; sw++ {
		improved := false
		for t := 0; t < tries; t++ {
			r1 := rng.Intn(inst.N)
			from := assign[r1]
			if from == 0 {
				continue
			}
			// Pick a random lower level in use.
			lower := 0
			for j := 0; j < from; j++ {
				if used[j] > 0 {
					lower++
				}
			}
			if lower == 0 {
				continue
			}
			pick := rng.Intn(lower)
			to := -1
			for j := 0; j < from; j++ {
				if used[j] > 0 {
					if pick == 0 {
						to = j
						break
					}
					pick--
				}
			}
			gain := inst.RowLeakNW[r1][from] - inst.RowLeakNW[r1][to]
			st.move(r1, to)
			if st.feasible() {
				used[from]--
				used[to]++
				improved = true
				continue
			}
			// Repair: promote the row that buys the most slack on a
			// violated constraint up to the vacated level.
			viol = viol[:0]
			for k := range inst.Constraints {
				if st.sigma[k] < inst.Constraints[k].ReqPS-feasTolPS {
					viol = append(viol, k)
				}
			}
			r2 := -1
			if len(viol) > 0 {
				c := &inst.Constraints[viol[rng.Intn(len(viol))]]
				bestDelta := 0.0
				for i := range c.Rows {
					rc := &c.Rows[i]
					if rc.Row == r1 || assign[rc.Row] >= from {
						continue
					}
					if d := rc.DeltaPS[from] - rc.DeltaPS[assign[rc.Row]]; d > bestDelta {
						bestDelta = d
						r2 = rc.Row
					}
				}
			}
			if r2 >= 0 {
				r2from := assign[r2]
				cost := inst.RowLeakNW[r2][from] - inst.RowLeakNW[r2][r2from]
				st.move(r2, from)
				if st.feasible() && cost < gain {
					// r1: from -> to; r2: r2from -> from.
					used[to]++
					used[r2from]--
					improved = true
					continue
				}
				st.move(r2, r2from)
			}
			st.move(r1, from)
		}
		if !improved {
			return
		}
	}
}
