package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/sta"
)

// buildProblem is the reference construction of a clustering instance, kept
// as the test oracle Allocator.At must match bit for bit: it computes the
// L_ij leakage table, extracts the violating paths under beta, groups their
// cells by row into the a_ijk coefficients, and merges duplicate
// constraints keeping the tightest requirement, all directly from the
// placement and timing with no precomputed structure.
func buildProblem(pl *place.Placement, tm *sta.Timing, opts Options) (*Instance, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	grid := pl.Lib.Grid
	p := &Instance{
		Pl:           pl,
		Tm:           tm,
		Grid:         grid,
		Beta:         opts.Beta,
		MaxClusters:  opts.MaxClusters,
		MaxBiasPairs: opts.MaxBiasPairs,
		N:            pl.NumRows,
		P:            grid.NumLevels(),
		RowLeakNW:    power.RowLeakTable(pl),
		Involved:     make([]bool, pl.NumRows),
	}

	// Extract violating paths and their per-row reduction vectors.
	type sigEntry struct{ idx int }
	sigs := map[string]sigEntry{}
	var key strings.Builder
	for pi, path := range tm.Paths {
		req := path.DelayPS*(1+opts.Beta) - tm.DcritPS
		if req <= feasTolPS {
			continue // meets timing even degraded; prune
		}
		p.RawViolations++
		// Group the path's gates by row; delta per level is the sum of
		// the gates' degraded-delay reductions.
		perRow := map[int][]float64{}
		for _, g := range path.Gates {
			row := pl.RowOf[g]
			dv := perRow[row]
			if dv == nil {
				dv = make([]float64, p.P)
				perRow[row] = dv
			}
			c := pl.Design.Gates[g].Cell
			degraded := tm.GateDelayPS[g] * (1 + opts.Beta)
			for j := 0; j < p.P; j++ {
				dv[j] += degraded * (1 - c.DelayFactor[j])
			}
		}
		rows := make([]int, 0, len(perRow))
		for r := range perRow {
			rows = append(rows, r)
		}
		sort.Ints(rows)
		pc := PathConstraint{ReqPS: req, PathIdx: pi}
		key.Reset()
		for _, r := range rows {
			dv := perRow[r]
			pc.Rows = append(pc.Rows, RowContrib{Row: r, DeltaPS: dv})
			// The signature covers every level: constraints may only
			// merge when their whole coefficient vectors agree.
			fmt.Fprintf(&key, "%d:", r)
			for j := 1; j < p.P; j++ {
				fmt.Fprintf(&key, "%.6f,", dv[j])
			}
			key.WriteByte(';')
		}
		// Merge constraints with identical row/delta signatures: only
		// the tightest requirement binds.
		k := key.String()
		if e, ok := sigs[k]; ok {
			if req > p.Constraints[e.idx].ReqPS {
				p.Constraints[e.idx].ReqPS = req
				p.Constraints[e.idx].PathIdx = -1
			}
			continue
		}
		sigs[k] = sigEntry{idx: len(p.Constraints)}
		p.Constraints = append(p.Constraints, pc)
	}

	// Row-to-constraint index and involvement flags.
	p.rowConsStart, p.rowConsRefs = buildRowCons(p.N, p.Constraints, p.Involved, nil, nil)
	p.crit = referenceCritRuns(pl, tm)
	return p, nil
}

// referenceCritRuns builds the per-row criticality runs directly from the
// paths: each path appends one (path, cell count) run to every row it
// touches.
func referenceCritRuns(pl *place.Placement, tm *sta.Timing) critRuns {
	perRow := make([][]critRun, pl.NumRows)
	for pi, path := range tm.Paths {
		count := map[int]int32{}
		for _, g := range path.Gates {
			count[pl.RowOf[g]]++
		}
		for r, c := range count {
			perRow[r] = append(perRow[r], critRun{path: int32(pi), count: c})
		}
	}
	cr := critRuns{start: make([]int32, 1, pl.NumRows+1)}
	for _, rs := range perRow {
		cr.runs = append(cr.runs, rs...)
		cr.start = append(cr.start, int32(len(cr.runs)))
	}
	return cr
}

// referenceRowCriticality is the path-major criticality walk rowCriticality
// must match bit for bit: every path adds its weight to the row of each of
// its cells, in path order.
func referenceRowCriticality(inst *Instance, ct []float64) []float64 {
	const minSlackPS = 1.0
	for i := range ct {
		ct[i] = 0
	}
	for _, path := range inst.Tm.Paths {
		slack := inst.Tm.DcritPS - path.DelayPS*(1+inst.Beta)
		if slack < minSlackPS {
			slack = minSlackPS
		}
		w := 1 / slack
		for _, g := range path.Gates {
			ct[inst.Pl.RowOf[g]] += w
		}
	}
	return ct
}

// newTimingState readies a fresh incremental timing state over assign.
func (inst *Instance) newTimingState(assign []int) *timingState {
	st := &timingState{}
	inst.initTimingState(st, assign, make([]float64, len(inst.Constraints)))
	return st
}

// solveAt materializes the instance for opts into buf and solves it with
// solver (nil = the heuristic), returning the instance actually used so a
// test can thread one buffer through repeated solves.
func solveAt(a *Allocator, opts Options, solver Solver, buf *Instance) (*Solution, *Instance, error) {
	inst, err := a.At(opts, buf)
	if err != nil {
		return nil, buf, err
	}
	sol, err := inst.Solve(solver)
	return sol, inst, err
}
