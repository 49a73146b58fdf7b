package core

import (
	"errors"
	"fmt"
	"sort"
)

// heurScratch holds every buffer the two-pass heuristic (and the single-BB
// baseline) needs, so repeated solves on one Instance allocate nothing. The
// zero value is valid: buffers grow on first use and are reused afterwards.
// All content is rewritten by each solve; only capacity carries over.
type heurScratch struct {
	assign    []int
	ct        []float64
	order     []int
	sigma     []float64
	levelSeen []bool
	levels    []int
	rows      []int
	w         []float64 // per-path criticality weights of rowCriticality
	sorter    ctSorter
	sol       Solution
	solSingle Solution
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// passOneInto finds the lowest uniform bias level meeting timing: assign
// every row to level j for increasing j and check timing (the paper's
// Figure 5, PASSONE). The result is jopt; the corresponding uniform
// assignment is the block-level "single BB" baseline of Table 1. On
// success assign (len N) is uniformly jopt, exactly the starting point
// PassTwo wants.
func (inst *Instance) passOneInto(assign []int) (int, error) {
	for j := 0; j < inst.P; j++ {
		for i := range assign {
			assign[i] = j
		}
		if inst.CheckTiming(assign) {
			return j, nil
		}
	}
	return 0, fmt.Errorf("core: no uniform bias meets timing at beta=%.1f%% (%w)",
		inst.Beta*100, ErrBeyondRange)
}

// SingleBB returns the block-level single-voltage baseline, all rows at
// jopt, on the instance's scratch (same buffer contract as Solve, but a
// separate slot: a SingleBB result and one later Solve result may
// coexist).
func (inst *Instance) SingleBB() (*Solution, error) {
	s := &inst.heur
	s.assign = growInts(s.assign, inst.N)
	if _, err := inst.passOneInto(s.assign); err != nil {
		return nil, err
	}
	s.levelSeen = growBools(s.levelSeen, inst.P)
	if err := inst.fillSolution(&s.solSingle, s.levelSeen, s.assign, "single-bb", true); err != nil {
		return nil, err
	}
	return &s.solSingle, nil
}

// critRuns lists, per placement row, the paths of Π through it in CSR form:
// row i's runs are runs[start[i]:start[i+1]], paths ascending, each with the
// number of the path's cells in the row (the paper's Q_ik).
type critRuns struct {
	start []int32
	runs  []critRun
}

type critRun struct {
	path, count int32
}

// rowCriticality fills ct (len N) with the paper's timing-criticality
// coefficient per row: ct_i = sum over paths k of Q_ik / slack_k, where
// Q_ik counts the path's cells in row i and the slack is taken under the
// degraded timing (floored at one picosecond so violating paths dominate
// the ranking).
//
// The sum runs row-major over critRuns: each row adds w_k = 1/slack_k once
// per cell, paths ascending, into a register. Each row therefore sees the
// additions of a walk over Π path by path and cell by cell, in the same
// order, from the same zero: the coefficients are bit-identical to that
// walk's, without its scattered read-modify-writes of ct.
func (inst *Instance) rowCriticality(ct []float64) []float64 {
	const minSlackPS = 1.0
	s := &inst.heur
	s.w = growFloats(s.w, len(inst.Tm.Paths))
	w := s.w
	for k := range inst.Tm.Paths {
		slack := inst.Tm.DcritPS - inst.Tm.Paths[k].DelayPS*(1+inst.Beta)
		if slack < minSlackPS {
			slack = minSlackPS
		}
		w[k] = 1 / slack
	}
	start := inst.crit.start
	for i := range ct {
		sum := 0.0
		for _, r := range inst.crit.runs[start[i]:start[i+1]] {
			wk := w[r.path]
			for c := r.count; c > 0; c-- {
				sum += wk
			}
		}
		ct[i] = sum
	}
	return ct
}

// ctSorter stable-sorts a row order by ascending criticality without the
// closure and reflection allocations of sort.SliceStable (a stable sort's
// output is fully determined by the keys, so swapping the sort
// implementation cannot change the result).
type ctSorter struct {
	order []int
	key   []float64
}

func (s *ctSorter) Len() int           { return len(s.order) }
func (s *ctSorter) Less(a, b int) bool { return s.key[s.order[a]] < s.key[s.order[b]] }
func (s *ctSorter) Swap(a, b int)      { s.order[a], s.order[b] = s.order[b], s.order[a] }

// timingState evaluates constraints incrementally as rows move between
// levels, making each heuristic step O(paths touching the row) instead of
// O(all constraints).
type timingState struct {
	inst     *Instance
	assign   []int
	sigma    []float64
	violated int
}

// initTimingState readies st over assign using sigma (len = constraints) as
// the accumulator buffer.
func (inst *Instance) initTimingState(st *timingState, assign []int, sigma []float64) {
	st.inst = inst
	st.assign = assign
	st.sigma = sigma
	st.violated = 0
	for k := range inst.Constraints {
		c := &inst.Constraints[k]
		st.sigma[k] = 0
		for _, rc := range c.Rows {
			st.sigma[k] += rc.DeltaPS[assign[rc.Row]]
		}
		if st.sigma[k] < c.ReqPS-feasTolPS {
			st.violated++
		}
	}
}

// move reassigns one row and updates the violation count.
func (st *timingState) move(row, to int) {
	from := st.assign[row]
	if from == to {
		return
	}
	st.assign[row] = to
	for _, ref := range st.inst.rowCons(row) {
		c := &st.inst.Constraints[ref.k]
		rc := &c.Rows[ref.pos]
		before := st.sigma[ref.k]
		after := before - rc.DeltaPS[from] + rc.DeltaPS[to]
		st.sigma[ref.k] = after
		wasOK := before >= c.ReqPS-feasTolPS
		isOK := after >= c.ReqPS-feasTolPS
		switch {
		case wasOK && !isOK:
			st.violated++
		case !wasOK && isOK:
			st.violated--
		}
	}
}

func (st *timingState) feasible() bool { return st.violated == 0 }

// solveHeuristic runs the two-pass greedy allocator (the paper's Figure 5)
// on the instance's scratch; HeuristicSolver is its Solver form.
//
// PassTwo interpretation (the published pseudocode reuses indices
// ambiguously): rows are sorted by increasing timing criticality; starting
// with every row at jopt, rows are dropped one at a time to the next lower
// level. The first row whose drop violates timing is reverted, and all rows
// still at the upper level are locked as one cluster. After C-1 lock events
// the remaining rows may only move as a single block (so no new cluster can
// appear). The walk continues level by level until no-body-bias is reached.
// Complexity is O(P*N) row moves, each with an incremental timing check, so
// the runtime is linear in the rows, as the paper claims. The returned
// Solution is the scratch slot inst.heur.sol, invalidated by the next solve.
func (inst *Instance) solveHeuristic() (*Solution, error) {
	s := &inst.heur
	s.assign = growInts(s.assign, inst.N)
	s.levelSeen = growBools(s.levelSeen, inst.P)
	assign := s.assign
	jopt, err := inst.passOneInto(assign)
	if err != nil {
		return nil, err
	}
	if jopt == 0 {
		// Nothing to compensate; a single NBB cluster.
		if err := inst.fillSolution(&s.sol, s.levelSeen, assign, "heuristic", false); err != nil {
			return nil, err
		}
		return &s.sol, nil
	}

	// Rank rows by increasing criticality (least critical dropped first).
	s.ct = growFloats(s.ct, inst.N)
	ct := inst.rowCriticality(s.ct)
	s.order = growInts(s.order, inst.N)
	order := s.order
	for i := range order {
		order[i] = i
	}
	s.sorter.order, s.sorter.key = order, ct
	sort.Stable(&s.sorter)

	s.sigma = growFloats(s.sigma, len(inst.Constraints))
	var st timingState
	inst.initTimingState(&st, assign, s.sigma)
	if !st.feasible() {
		return nil, errors.New("core: PassOne solution fails incremental check")
	}

	inst.walkDown(&st, order, jopt)

	if !st.feasible() {
		return nil, errors.New("core: heuristic produced an infeasible assignment")
	}
	inst.reconcilePairs(&st, assign, s)
	inst.refineDown(&st, assign, s)
	if err := inst.fillSolution(&s.sol, s.levelSeen, assign, "heuristic", false); err != nil {
		return nil, err
	}
	return &s.sol, nil
}

// walkDown is the PassTwo level walk: rows are dropped in `order` (least
// critical first) one level at a time; the first failing drop per level is
// reverted and locks the remaining rows as a cluster. It truncates order in
// place (the unlocked suffix shrinks as clusters lock).
func (inst *Instance) walkDown(st *timingState, order []int, jopt int) {
	unlocked := order
	lockEvents := 0
	for level := jopt; level >= 1 && len(unlocked) > 0; level-- {
		if lockEvents >= inst.MaxClusters-1 {
			// Only whole-block moves are allowed now: any split
			// would create a cluster beyond C.
			for _, r := range unlocked {
				st.move(r, level-1)
			}
			if !st.feasible() {
				for _, r := range unlocked {
					st.move(r, level)
				}
				break
			}
			continue
		}
		cut := len(unlocked)
		for idx, r := range unlocked {
			st.move(r, level-1)
			if !st.feasible() {
				st.move(r, level)
				// Rows idx.. are more critical; lock them at
				// this level as one cluster.
				lockEvents++
				cut = idx
				break
			}
		}
		unlocked = unlocked[:cut]
	}
}

// refineDown is a cleanup sweep after the greedy walk: every row retries the
// lowest level already in use that keeps timing feasible. Lowering a row
// strictly reduces leakage, can only remove clusters (levels may empty, none
// appear), and tends to collapse isolated biased rows, which also trims the
// layout's well-separation boundaries. Two sweeps suffice in practice; the
// loop stops at the first sweep with no improvement.
func (inst *Instance) refineDown(st *timingState, assign []int, s *heurScratch) {
	s.levelSeen = growBools(s.levelSeen, inst.P)
	for sweep := 0; sweep < 4; sweep++ {
		levels := inst.levelsInUse(assign, s)
		improved := false
		for r := 0; r < inst.N; r++ {
			for _, j := range levels {
				if j >= assign[r] {
					break
				}
				from := assign[r]
				st.move(r, j)
				if st.feasible() {
					improved = true
					break
				}
				st.move(r, from)
			}
		}
		if !improved {
			return
		}
	}
}

// levelsInUse collects the distinct levels of assign, ascending, into s's
// reusable buffers.
func (inst *Instance) levelsInUse(assign []int, s *heurScratch) []int {
	s.levelSeen = growBools(s.levelSeen, inst.P)
	seen := s.levelSeen
	for j := range seen {
		seen[j] = false
	}
	for _, j := range assign {
		seen[j] = true
	}
	s.levels = s.levels[:0]
	for j := 0; j < inst.P; j++ {
		if seen[j] {
			s.levels = append(s.levels, j)
		}
	}
	return s.levels
}

// reconcilePairs enforces the routing cap of section 3.3: at most
// MaxBiasPairs distinct non-NBB levels. When the greedy walk strands an
// extra cluster above NBB, its rows are dropped to NBB if timing allows and
// otherwise promoted to the next higher level in use — always feasible,
// since more bias only adds slack.
func (inst *Instance) reconcilePairs(st *timingState, assign []int, s *heurScratch) {
	for {
		levels := inst.levelsInUse(assign, s)
		pairs := len(levels)
		if pairs > 0 && levels[0] == 0 {
			pairs--
		}
		if pairs <= inst.MaxBiasPairs {
			return
		}
		lowest := levels[0]
		if lowest == 0 {
			lowest = levels[1]
		}
		next := 0
		for _, j := range levels {
			if j > lowest {
				next = j
				break
			}
		}
		// Row by row: drop to NBB when timing allows (free), otherwise
		// promote to the next level in use (small extra leakage).
		s.rows = s.rows[:0]
		for row, j := range assign {
			if j == lowest {
				s.rows = append(s.rows, row)
			}
		}
		for _, r := range s.rows {
			st.move(r, 0)
			if !st.feasible() {
				st.move(r, next)
			}
		}
	}
}
