// Package core implements the paper's contribution: physically clustered
// forward body biasing at standard-cell row granularity.
//
// Given a placed and timed design, a slowdown coefficient beta (every path
// delay degraded by 1+beta), a body-bias voltage grid, and a maximum cluster
// count C, the allocator partitions the rows into at most C clusters and
// assigns each cluster one bias voltage so that every degraded path meets
// the nominal critical delay Dcrit, at minimum leakage overhead.
//
// Two allocators are provided, mirroring the paper's section 4:
//
//   - an exact ILP (equations 1-5) solved by branch and bound, and
//   - the linear-time two-pass greedy heuristic (figures 4-5): PassOne finds
//     the lowest uniform voltage jopt meeting timing (this is also the
//     "single BB" block-level baseline the paper compares against), PassTwo
//     drops rows, least-timing-critical first, to lower voltages until
//     timing breaks, locking a cluster at each break.
//
// Sign convention: the paper writes the timing constraints as
// sum(a_ijk * x_ij) <= b_k with b_k = Dcrit - p_k(1+beta) (negative for a
// violating path) while describing a_ijk as a positive delay reduction. We
// implement the evident intent: the total reduction on path k must reach
// req_k = p_k(1+beta) - Dcrit > 0. Paths with req_k <= 0 are pruned, which
// matches the paper's constraint counts growing with beta.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/ilp"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/tech"
)

// feasTolPS is the timing feasibility tolerance in picoseconds.
const feasTolPS = 1e-6

// RowContrib is one row's per-level delay reduction on one path.
type RowContrib struct {
	// Row is the placement row index.
	Row int
	// DeltaPS[j] is the path-delay reduction (ps) contributed by this
	// row at bias level j (the paper's a_ijk for fixed k).
	DeltaPS []float64
}

// PathConstraint is one timing constraint of the violating-path set.
type PathConstraint struct {
	// ReqPS is the required total delay reduction (ps).
	ReqPS float64
	// Rows lists the contributing rows (rows without cells on the path
	// are absent).
	Rows []RowContrib
	// PathIdx indexes the originating sta path (-1 for merged
	// constraints that kept a tighter requirement).
	PathIdx int
}

// Instance is the one form of an FBB clustering problem: the a_ijk
// delay-reduction constraints and the L_ij leakage table that both the
// exact ILP (equations 1-5) and the two-pass heuristic (figures 4-5) read,
// plus the scratch every solver pass reuses. Allocator.At materializes it.
//
// Buffer contract (mirroring sta.Timing under Analyzer.Run): everything an
// Instance exposes — its fields, its constraint tables, and any Solution
// returned by Solve or SingleBB on it — lives in the Instance's buffers
// and is invalidated by the next At/Solve call on the same
// Instance; Clone a Solution (or finish reading the fields) before
// re-materializing. SolveILP, CheckTiming and VbsOf only read the
// instance. An Instance must not be shared between concurrent solves, but
// the Allocator may be: keep one Instance per worker.
type Instance struct {
	Pl   *place.Placement
	Tm   *sta.Timing
	Grid tech.BiasGrid
	// Beta is the slowdown coefficient (0.05 = all paths 5% slower).
	Beta float64
	// MaxClusters is C, the maximum number of distinct bias levels in a
	// solution, counting no-body-bias as a cluster (the paper's layout
	// supports at most 3: NBB plus two routed bias pairs).
	MaxClusters int
	// MaxBiasPairs caps the distinct non-NBB levels: each one needs a
	// (vbsn, vbsp) pair routed on top metal, and the paper's row style
	// can route at most two without growing the die.
	MaxBiasPairs int

	// N is the row count, P the level count.
	N, P int
	// Constraints is the pruned, deduplicated constraint set; its length
	// is the paper's "No.Constr" column.
	Constraints []PathConstraint
	// RawViolations counts violating paths before signature merging
	// (>= len(Constraints)); the gap measures how much the row-level
	// abstraction compresses the path set.
	RawViolations int
	// RowLeakNW[i][j] is the leakage overhead (nW) of row i at level j
	// (the paper's L_ij, expressed as increase over NBB).
	RowLeakNW [][]float64
	// Involved marks rows contributing to at least one constraint.
	Involved []bool

	// ILPResult reports the branch-and-bound outcome of the most recent
	// exact solve through ILPSolver on this instance (nil before one
	// runs).
	ILPResult *ilp.Result

	// rowConsStart/rowConsRefs index, in CSR form, the (constraint,
	// position) pairs each row contributes to, for incremental timing
	// checks: row i's references are rowConsRefs[rowConsStart[i]:
	// rowConsStart[i+1]].
	rowConsStart []int32
	rowConsRefs  []rowConRef

	// Materialization arenas: Constraints[k].Rows and their DeltaPS
	// vectors are slices of these, regrown only when an At needs more.
	contribArena []RowContrib
	deltaArena   []float64

	// Signature-merge scratch: an open-addressed chain over the key byte
	// arena, so repeat materializations allocate nothing.
	keyArena []byte
	keyOff   []int32
	keyLen   []int32
	buckets  []int32
	bnext    []int32

	viol     []violGroup
	violSort violSorter

	// crit is the Allocator's per-row criticality table (read-only).
	crit critRuns

	heur heurScratch
}

type rowConRef struct {
	k   int32 // constraint index
	pos int32 // index into Constraints[k].Rows
}

// Options configure problem construction.
type Options struct {
	// Beta is the slowdown coefficient; must be finite and positive.
	Beta float64
	// MaxClusters is C (default 3, the paper's layout limit).
	MaxClusters int
	// MaxBiasPairs caps distinct non-NBB levels (default 2, the routing
	// limit of section 3.3; raise it for cluster-count sweep studies).
	MaxBiasPairs int
}

// ErrBeta reports a slowdown coefficient that is not a finite positive
// number. A NaN or infinite beta has no meaningful timing target: it would
// turn every path target into NaN or zero instead of failing.
var ErrBeta = errors.New("core: beta must be a finite positive number")

// normalize applies the defaults and validates the options.
func (o *Options) normalize() error {
	if !(o.Beta > 0) || math.IsInf(o.Beta, 1) {
		return fmt.Errorf("%w, got %v", ErrBeta, o.Beta)
	}
	if o.MaxClusters == 0 {
		o.MaxClusters = 3
	}
	if o.MaxClusters < 1 {
		return errors.New("core: MaxClusters must be >= 1")
	}
	if o.MaxBiasPairs == 0 {
		o.MaxBiasPairs = 2
	}
	if o.MaxBiasPairs < 1 {
		return errors.New("core: MaxBiasPairs must be >= 1")
	}
	return nil
}

// buildRowCons constructs the CSR row-to-constraint index and the
// involvement flags, reusing startBuf/refsBuf when they have capacity. The
// involved slice must already be sized N and zeroed.
func buildRowCons(n int, constraints []PathConstraint, involved []bool, startBuf []int32, refsBuf []rowConRef) ([]int32, []rowConRef) {
	start := startBuf
	if cap(start) < n+1 {
		start = make([]int32, n+1)
	}
	start = start[:n+1]
	for i := range start {
		start[i] = 0
	}
	total := 0
	for k := range constraints {
		for _, rc := range constraints[k].Rows {
			involved[rc.Row] = true
			start[rc.Row+1]++
			total++
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	refs := refsBuf
	if cap(refs) < total {
		refs = make([]rowConRef, total)
	}
	refs = refs[:total]
	// fill using start as a moving cursor, then restore it.
	for k := range constraints {
		for pos, rc := range constraints[k].Rows {
			refs[start[rc.Row]] = rowConRef{k: int32(k), pos: int32(pos)}
			start[rc.Row]++
		}
	}
	for i := n; i > 0; i-- {
		start[i] = start[i-1]
	}
	start[0] = 0
	return start, refs
}

// rowCons returns row i's constraint references.
func (inst *Instance) rowCons(i int) []rowConRef {
	return inst.rowConsRefs[inst.rowConsStart[i]:inst.rowConsStart[i+1]]
}

// NumConstraints returns M, the paper's "No.Constr".
func (inst *Instance) NumConstraints() int { return len(inst.Constraints) }

// CheckTiming reports whether a row-to-level assignment meets every path
// constraint (the paper's Figure 4 routine).
func (inst *Instance) CheckTiming(assign []int) bool {
	for k := range inst.Constraints {
		c := &inst.Constraints[k]
		sigma := 0.0
		for _, rc := range c.Rows {
			sigma += rc.DeltaPS[assign[rc.Row]]
		}
		if sigma < c.ReqPS-feasTolPS {
			return false
		}
	}
	return true
}

// Clusters returns the number of distinct bias levels used by an assignment
// (no-body-bias counts as a cluster when used, per the paper's layout
// accounting).
func Clusters(assign []int) int {
	seen := map[int]struct{}{}
	for _, j := range assign {
		seen[j] = struct{}{}
	}
	return len(seen)
}

// Solution is one FBB allocation.
type Solution struct {
	// Assign maps each row to its bias level.
	Assign []int
	// ExtraLeakNW is the leakage overhead spent over the NBB corner.
	ExtraLeakNW float64
	// TotalLeakNW is the absolute design leakage under the assignment
	// (the paper's Table 1 reports this for the single-BB baseline, and
	// savings percentages are relative to it).
	TotalLeakNW float64
	// Clusters is the number of distinct levels used.
	Clusters int
	// Method identifies the allocator ("single-bb", "heuristic", "ilp").
	Method string
	// Proven is true when the ILP proved optimality (always true for
	// single-bb and never for the heuristic).
	Proven bool
}

// Clone returns a deep copy of the solution, detaching it from any scratch
// buffers it may live in (Instance-owned solutions are invalidated by the
// next solve; clone what must outlive it).
func (s *Solution) Clone() *Solution {
	c := *s
	c.Assign = append([]int(nil), s.Assign...)
	return &c
}

// solutionFor packages an assignment.
func (inst *Instance) solutionFor(assign []int, method string, proven bool) (*Solution, error) {
	sol := &Solution{}
	if err := inst.fillSolution(sol, nil, assign, method, proven); err != nil {
		return nil, err
	}
	return sol, nil
}

// fillSolution populates sol from assign, reusing sol's Assign buffer and,
// when non-nil, levelSeen (len >= P, contents ignored) as cluster-count
// scratch, so a warmed-up caller fills without allocating.
func (inst *Instance) fillSolution(sol *Solution, levelSeen []bool, assign []int, method string, proven bool) error {
	extra, err := power.AssignExtraLeakageNW(inst.Pl, assign)
	if err != nil {
		return err
	}
	clusters := 0
	if levelSeen != nil {
		seen := levelSeen[:inst.P]
		for j := range seen {
			seen[j] = false
		}
		for _, j := range assign {
			if !seen[j] {
				seen[j] = true
				clusters++
			}
		}
	} else {
		clusters = Clusters(assign)
	}
	sol.Assign = append(sol.Assign[:0], assign...)
	sol.ExtraLeakNW = extra
	sol.TotalLeakNW = power.DesignLeakageNW(inst.Pl.Design) + extra
	sol.Clusters = clusters
	sol.Method = method
	sol.Proven = proven
	return nil
}

// VbsOf returns the bias voltages (NMOS side) of the clusters used by a
// solution, ascending.
func (inst *Instance) VbsOf(s *Solution) []float64 {
	seen := map[int]struct{}{}
	for _, j := range s.Assign {
		seen[j] = struct{}{}
	}
	levels := make([]int, 0, len(seen))
	for j := range seen {
		levels = append(levels, j)
	}
	sort.Ints(levels)
	out := make([]float64, len(levels))
	for i, j := range levels {
		out[i] = inst.Grid.Voltage(j)
	}
	return out
}

// Savings returns the percentage of total leakage saved by a solution
// relative to the single-voltage baseline, the paper's headline metric
// (Table 1 reports the baseline as absolute microwatts and the savings
// against that absolute figure, which is why they plateau below ~50%: the
// no-body-bias floor cannot be saved).
func Savings(single, sol *Solution) float64 {
	if single.TotalLeakNW <= 0 {
		return 0
	}
	return 100 * (single.TotalLeakNW - sol.TotalLeakNW) / single.TotalLeakNW
}
