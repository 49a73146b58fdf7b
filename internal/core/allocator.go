package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"sort"
	"strconv"

	"repro/internal/cell"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/tech"
)

// Allocator materializes clustering Instances (At is their constructor):
// everything a (beta, cluster-cap) pair cannot change — the L_ij leakage
// table, each path's cells grouped by placement row in CSR form, and the
// per-gate bias delay factors — is computed once at construction, so At only
// re-evaluates the beta-dependent requirements, delay-delta tables and
// signature merging into reused buffers. Tuning loops (variation.TuneOn,
// YieldStream) and experiment grids (Table 1, cluster sweeps) construct
// thousands of Instances over one fixed (placement, nominal timing) pair,
// and each is a linear re-materialization with ~zero allocations.
//
// At's output is defined by a direct reference construction, kept as the
// test oracle buildProblem (reference_test.go): group each violating
// path's gates by row with a map and a sort, and merge constraints whose
// "%.6f"-formatted coefficient vectors agree. At must match it bit for
// bit; the comments below call it "the reference".
//
// An Allocator is immutable after construction and therefore safe for
// concurrent use: all per-call state lives in the caller-provided Instance
// buffer. Callers that run concurrently share one Allocator and keep one
// Instance per worker (exactly how sta.Analyzer pairs with per-worker
// Timing buffers).
//
// The placement and timing must not be mutated while the Allocator is in
// use: like an Instance, it reads tm's paths and gate delays at every call,
// so tm must be a stable nominal timing (e.g. flow.Prefix.Timing), never a
// reused re-timing buffer.
type Allocator struct {
	pl   *place.Placement
	tm   *sta.Timing
	grid tech.BiasGrid
	n, p int

	// rowLeak is the beta-independent L_ij table, shared (read-only) with
	// every materialized Instance.
	rowLeak [][]float64

	// Per-path row grouping, beta-independent, in CSR form: path pi's
	// groups are indices pathStart[pi]..pathStart[pi+1] (one per distinct
	// row, ascending); group g covers row groupRow[g] and its gates, in
	// path order, are pathGates[groupGateStart[g]:groupGateStart[g+1]].
	pathStart      []int32
	groupRow       []int32
	groupGateStart []int32
	pathGates      []int32

	// crit is the same grouping transposed to rows, the heuristic's
	// criticality table; every Instance shares it.
	crit critRuns

	// omdf[g*p+j] = 1 - DelayFactor[j] of gate g's cell: the fractional
	// delay reduction bias level j buys on gate g.
	omdf []float64

	// groups partitions the paths into structural-duplicate classes: two
	// paths with the same row list and, per row, the same sequence of
	// (gate delay, delay factors) produce bit-identical delta vectors at
	// every beta, so their constraints merge at every beta. At processes
	// one exemplar per class, which is where the batched path beats
	// the reference: the duplicate delta accumulations and — decisively —
	// the duplicate "%.6f" signature formatting disappear.
	groups []allocGroup
}

// allocGroup is one structural-duplicate class of paths.
type allocGroup struct {
	// exemplar is the path whose CSR grouping stands in for the class
	// (all members produce bit-identical deltas).
	exemplar int32
	// members lists the class's paths, ascending.
	members []int32
	// candidate marks classes whose beta-0 delta vector lies within
	// decimal-formatting distance of another class over the same rows:
	// only these can ever merge across classes under the reference's
	// "%.6f" signature, so only these pay for merge keys in At.
	candidate bool
}

// NewAllocator precomputes the beta-independent part of clustering-problem
// construction for a placed, timed design.
func NewAllocator(pl *place.Placement, tm *sta.Timing) (*Allocator, error) {
	if pl == nil || tm == nil {
		return nil, errors.New("core: NewAllocator needs a placement and its timing")
	}
	if tm.Pl != pl {
		return nil, errors.New("core: timing was computed for a different placement")
	}
	a := &Allocator{
		pl:      pl,
		tm:      tm,
		grid:    pl.Lib.Grid,
		n:       pl.NumRows,
		p:       pl.Lib.Grid.NumLevels(),
		rowLeak: power.RowLeakTable(pl),
	}

	nGates := len(pl.Design.Gates)
	a.omdf = make([]float64, nGates*a.p)
	for g := 0; g < nGates; g++ {
		df := pl.Design.Gates[g].Cell.DelayFactor
		for j := 0; j < a.p; j++ {
			a.omdf[g*a.p+j] = 1 - df[j]
		}
	}

	// Group every path's gates by row, rows ascending, gates in path order
	// within each row — the exact order the reference's map-and-sort pass
	// visits them, so the per-level delta accumulation is bit-identical.
	rowCount := make([]int32, a.n)
	rowOffset := make([]int32, a.n)
	rowsBuf := make([]int, 0, 64)
	a.pathStart = make([]int32, len(tm.Paths)+1)
	for pi := range tm.Paths {
		path := &tm.Paths[pi]
		rowsBuf = rowsBuf[:0]
		for _, g := range path.Gates {
			r := pl.RowOf[g]
			if rowCount[r] == 0 {
				rowsBuf = append(rowsBuf, r)
			}
			rowCount[r]++
		}
		sortInts(rowsBuf)
		base := int32(len(a.pathGates))
		off := int32(0)
		for _, r := range rowsBuf {
			a.groupRow = append(a.groupRow, int32(r))
			a.groupGateStart = append(a.groupGateStart, base+off)
			rowOffset[r] = base + off
			off += rowCount[r]
			rowCount[r] = 0
		}
		a.pathGates = append(a.pathGates, make([]int32, off)...)
		for _, g := range path.Gates {
			r := pl.RowOf[g]
			a.pathGates[rowOffset[r]] = int32(g)
			rowOffset[r]++
		}
		a.pathStart[pi+1] = int32(len(a.groupRow))
	}
	a.groupGateStart = append(a.groupGateStart, int32(len(a.pathGates)))
	a.buildCritRuns()
	a.buildGroups()
	a.markMergeCandidates()
	return a, nil
}

// buildCritRuns transposes the path-major row grouping into critRuns:
// visiting the groups path by path appends each row's runs in path order.
func (a *Allocator) buildCritRuns() {
	start := make([]int32, a.n+1)
	for _, r := range a.groupRow {
		start[r+1]++
	}
	for i := 0; i < a.n; i++ {
		start[i+1] += start[i]
	}
	runs := make([]critRun, len(a.groupRow))
	next := make([]int32, a.n)
	copy(next, start)
	for pi := 0; pi+1 < len(a.pathStart); pi++ {
		for gi := a.pathStart[pi]; gi < a.pathStart[pi+1]; gi++ {
			r := a.groupRow[gi]
			runs[next[r]] = critRun{path: int32(pi), count: a.groupGateStart[gi+1] - a.groupGateStart[gi]}
			next[r]++
		}
	}
	a.crit = critRuns{start: start, runs: runs}
}

// buildGroups partitions the paths into structural-duplicate classes. Gates
// are first classed by (delay bits, cell): two gates of the same class
// contribute bit-identical terms to a delta vector at any beta, so paths
// with identical per-row class sequences are one group.
func (a *Allocator) buildGroups() {
	nGates := len(a.pl.Design.Gates)
	cellID := map[*cell.Cell]int32{}
	type gateKey struct {
		delay uint64
		cell  int32
	}
	classOf := map[gateKey]int32{}
	gateClass := make([]int32, nGates)
	for g := 0; g < nGates; g++ {
		c := a.pl.Design.Gates[g].Cell
		ci, ok := cellID[c]
		if !ok {
			ci = int32(len(cellID))
			cellID[c] = ci
		}
		k := gateKey{delay: math.Float64bits(a.tm.GateDelayPS[g]), cell: ci}
		id, ok := classOf[k]
		if !ok {
			id = int32(len(classOf))
			classOf[k] = id
		}
		gateClass[g] = id
	}

	buckets := map[uint64][]int32{} // path-structure hash -> group indices
	for pi := range a.tm.Paths {
		h := uint64(14695981039346656037)
		mix := func(v uint64) {
			h ^= v
			h *= 1099511628211
		}
		for gi := a.pathStart[pi]; gi < a.pathStart[pi+1]; gi++ {
			mix(uint64(a.groupRow[gi]) | 1<<40)
			for _, g := range a.pathGates[a.groupGateStart[gi]:a.groupGateStart[gi+1]] {
				mix(uint64(gateClass[g]))
			}
		}
		placed := false
		for _, gi := range buckets[h] {
			if a.samePathStructure(int32(pi), a.groups[gi].exemplar, gateClass) {
				a.groups[gi].members = append(a.groups[gi].members, int32(pi))
				placed = true
				break
			}
		}
		if !placed {
			buckets[h] = append(buckets[h], int32(len(a.groups)))
			a.groups = append(a.groups, allocGroup{
				exemplar: int32(pi),
				members:  []int32{int32(pi)},
			})
		}
	}
}

// samePathStructure reports whether two paths have identical row lists and,
// per row, identical gate-class sequences.
func (a *Allocator) samePathStructure(pa, pb int32, gateClass []int32) bool {
	sa, ea := a.pathStart[pa], a.pathStart[pa+1]
	sb, eb := a.pathStart[pb], a.pathStart[pb+1]
	if ea-sa != eb-sb {
		return false
	}
	for i := int32(0); i < ea-sa; i++ {
		ga, gb := sa+i, sb+i
		if a.groupRow[ga] != a.groupRow[gb] {
			return false
		}
		la := a.groupGateStart[ga+1] - a.groupGateStart[ga]
		if la != a.groupGateStart[gb+1]-a.groupGateStart[gb] {
			return false
		}
		for k := int32(0); k < la; k++ {
			if gateClass[a.pathGates[a.groupGateStart[ga]+k]] != gateClass[a.pathGates[a.groupGateStart[gb]+k]] {
				return false
			}
		}
	}
	return true
}

// mergeEpsPS bounds when two bit-different delta vectors could still format
// to the same "%.6f" signature at some beta. Two values share a rounded
// 6-decimal representation only when they differ by less than 1e-6 (plus
// ulps); the per-level delta difference between two classes scales as
// (1+beta) times their beta-0 difference (up to summation ulps, orders of
// magnitude below this threshold), so a beta-0 gap of 2e-6 on any level
// rules the merge out for every beta >= 0.
const mergeEpsPS = 2e-6

// markMergeCandidates computes each class's beta-0 delta vector and flags
// the classes that could ever format-merge with another class: same row
// list, every level's delta within mergeEpsPS. Everything else skips
// signature work in At entirely.
func (a *Allocator) markMergeCandidates() {
	nG := len(a.groups)
	if nG < 2 {
		return
	}
	// beta-0 delta vectors, one per class, over the class's rows.
	base := make([][]float64, nG)
	for gi := range a.groups {
		pi := a.groups[gi].exemplar
		rows := a.pathStart[pi+1] - a.pathStart[pi]
		bv := make([]float64, int(rows)*a.p)
		for r := int32(0); r < rows; r++ {
			gslot := a.pathStart[pi] + r
			dv := bv[int(r)*a.p : (int(r)+1)*a.p]
			for _, g := range a.pathGates[a.groupGateStart[gslot]:a.groupGateStart[gslot+1]] {
				d := a.tm.GateDelayPS[g]
				omdf := a.omdf[int(g)*a.p : (int(g)+1)*a.p]
				for j := 0; j < a.p; j++ {
					dv[j] += d * omdf[j]
				}
			}
		}
		base[gi] = bv
	}
	// Bucket by row list; only same-row-list classes can merge.
	rowBuckets := map[uint64][]int32{}
	for gi := range a.groups {
		pi := a.groups[gi].exemplar
		h := uint64(14695981039346656037)
		for _, r := range a.groupRow[a.pathStart[pi]:a.pathStart[pi+1]] {
			h ^= uint64(r)
			h *= 1099511628211
		}
		rowBuckets[h] = append(rowBuckets[h], int32(gi))
	}
	for _, gis := range rowBuckets {
		for x := 0; x < len(gis); x++ {
			for y := x + 1; y < len(gis); y++ {
				ga, gb := gis[x], gis[y]
				if a.groups[ga].candidate && a.groups[gb].candidate {
					continue
				}
				if !a.sameRowList(a.groups[ga].exemplar, a.groups[gb].exemplar) {
					continue
				}
				if deltaWithin(base[ga], base[gb], a.p) {
					a.groups[ga].candidate = true
					a.groups[gb].candidate = true
				}
			}
		}
	}
}

// sameRowList reports whether two paths touch exactly the same rows.
func (a *Allocator) sameRowList(pa, pb int32) bool {
	ra := a.groupRow[a.pathStart[pa]:a.pathStart[pa+1]]
	rb := a.groupRow[a.pathStart[pb]:a.pathStart[pb+1]]
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

// deltaWithin reports whether every formatted level (j >= 1, the signature's
// range) of two beta-0 delta vectors is within mergeEpsPS.
func deltaWithin(ba, bb []float64, p int) bool {
	for i := 0; i < len(ba); i += p {
		for j := 1; j < p; j++ {
			d := ba[i+j] - bb[i+j]
			if d < -mergeEpsPS || d > mergeEpsPS {
				return false
			}
		}
	}
	return true
}

// sortInts is an insertion sort for the small per-path row lists (a handful
// of rows; sort.Ints' interface indirection dominates at this size).
func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// violGroup is one violating structural class during materialization.
type violGroup struct {
	group   int32
	firstPi int32
	req     float64
	flipped bool
}

// violSorter orders violating classes by their registering path, matching
// the reference's constraint order, without sort.Slice's closure allocation.
type violSorter struct{ v []violGroup }

func (s *violSorter) Len() int           { return len(s.v) }
func (s *violSorter) Less(i, j int) bool { return s.v[i].firstPi < s.v[j].firstPi }
func (s *violSorter) Swap(i, j int)      { s.v[i], s.v[j] = s.v[j], s.v[i] }

// At materializes the clustering instance for opts into buf (nil allocates a
// fresh Instance), replicating the reference bit for bit: identical
// constraints, merge decisions, and requirement values.
func (a *Allocator) At(opts Options, buf *Instance) (*Instance, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	inst := buf
	if inst == nil {
		inst = &Instance{}
	}
	inst.ILPResult = nil
	inst.Pl, inst.Tm, inst.Grid = a.pl, a.tm, a.grid
	inst.Beta = opts.Beta
	inst.MaxClusters, inst.MaxBiasPairs = opts.MaxClusters, opts.MaxBiasPairs
	inst.N, inst.P = a.n, a.p
	inst.RowLeakNW = a.rowLeak
	inst.crit = a.crit
	inst.RawViolations = 0

	cons := inst.Constraints[:0]
	keys := inst.keyArena[:0]
	keyOff := inst.keyOff[:0]
	keyLen := inst.keyLen[:0]
	bnext := inst.bnext[:0]

	nb := 1
	for nb < 2*len(a.groups) {
		nb <<= 1
	}
	if cap(inst.buckets) < nb {
		inst.buckets = make([]int32, nb)
	}
	buckets := inst.buckets[:nb]
	for i := range buckets {
		buckets[i] = -1
	}

	onePlusBeta := 1 + opts.Beta
	dcrit := a.tm.DcritPS

	// Pass 1: find the violating classes, recording for each the member
	// that registers its constraint in the reference's path order (the
	// first violating one) and the binding requirement (the largest one).
	// The class's PathIdx collapses to -1 exactly when a member after the
	// registering one strictly tightened the requirement — compared on
	// the computed requirement floats, exactly as the reference's merge
	// does (two ulp-apart delays can round to equal requirements, and the
	// tie must then keep the first member's PathIdx).
	viol := inst.viol[:0]
	rows := 0 // row groups of the violating exemplars: pass 2's arena need
	for gi := range a.groups {
		g := &a.groups[gi]
		firstPi := int32(-1)
		var firstReq, maxReq float64
		count := 0
		for _, m := range g.members {
			req := a.tm.Paths[m].DelayPS*onePlusBeta - dcrit
			if req <= feasTolPS {
				continue // meets timing even degraded; prune
			}
			count++
			if firstPi < 0 {
				firstPi = m
				firstReq = req
			}
			if req > maxReq {
				maxReq = req
			}
		}
		if count == 0 {
			continue
		}
		inst.RawViolations += count
		rows += int(a.pathStart[g.exemplar+1] - a.pathStart[g.exemplar])
		viol = append(viol, violGroup{
			group:   int32(gi),
			firstPi: firstPi,
			req:     maxReq,
			flipped: maxReq > firstReq,
		})
	}
	inst.viol = viol
	inst.violSort.v = viol
	sort.Sort(&inst.violSort)

	// Size the arenas before pass 2 so that it never regrows them midway
	// (a constraint would keep its rows on the old array: correct, but one
	// allocation per regrowth): to this beta's need, at least doubling, so
	// that a buffer re-used at rising betas regrows a few times and then
	// holds what its largest instance needs, not what the largest beta
	// could.
	contribs := inst.contribArena[:0]
	if cap(contribs) < rows {
		contribs = make([]RowContrib, 0, max(rows, 2*cap(contribs)))
	}
	deltas := inst.deltaArena[:0]
	if cap(deltas) < rows*a.p {
		deltas = make([]float64, 0, max(rows*a.p, 2*cap(deltas)))
	}

	// Pass 2: materialize one constraint per violating class in
	// registration order, format-merging only the candidate classes
	// (everything else is provably unique at any beta).
	for vi := range viol {
		vg := &viol[vi]
		g := &a.groups[vg.group]
		pi := int(g.exemplar)
		req := vg.req
		pathIdx := int(vg.firstPi)
		if vg.flipped {
			pathIdx = -1
		}
		cstart, dstart, kstart := len(contribs), len(deltas), len(keys)
		for gi := a.pathStart[pi]; gi < a.pathStart[pi+1]; gi++ {
			row := int(a.groupRow[gi])
			dpos := len(deltas)
			for j := 0; j < a.p; j++ {
				deltas = append(deltas, 0)
			}
			dv := deltas[dpos : dpos+a.p]
			for _, gg := range a.pathGates[a.groupGateStart[gi]:a.groupGateStart[gi+1]] {
				degraded := a.tm.GateDelayPS[gg] * onePlusBeta
				omdf := a.omdf[int(gg)*a.p : (int(gg)+1)*a.p]
				for j := 0; j < a.p; j++ {
					dv[j] += degraded * omdf[j]
				}
			}
			contribs = append(contribs, RowContrib{Row: row, DeltaPS: dv})
			if g.candidate {
				// The signature covers every level, keyed so that it
				// partitions exactly as the reference's "%d:" + "%.6f,"
				// text does: constraints may only merge when their
				// whole coefficient vectors agree.
				keys = strconv.AppendInt(keys, int64(row), 10)
				keys = append(keys, ':')
				for j := 1; j < a.p; j++ {
					keys = appendLevelKey(keys, dv[j])
				}
				keys = append(keys, ';')
			}
		}

		if g.candidate {
			key := keys[kstart:]
			slot := keyHash(key) & uint64(nb-1)
			dup := int32(-1)
			for j := buckets[slot]; j >= 0; j = bnext[j] {
				if bytes.Equal(key, keys[keyOff[j]:keyOff[j]+keyLen[j]]) {
					dup = j
					break
				}
			}
			if dup >= 0 {
				// Merge: only the tightest requirement binds.
				if req > cons[dup].ReqPS {
					cons[dup].ReqPS = req
					cons[dup].PathIdx = -1
				}
				contribs = contribs[:cstart]
				deltas = deltas[:dstart]
				keys = keys[:kstart]
				continue
			}
			bnext = append(bnext, buckets[slot])
			buckets[slot] = int32(len(cons))
			keyOff = append(keyOff, int32(kstart))
			keyLen = append(keyLen, int32(len(keys)-kstart))
		} else {
			// Placeholders keep the per-constraint key tables aligned;
			// non-candidates never enter a bucket chain.
			bnext = append(bnext, -1)
			keyOff = append(keyOff, 0)
			keyLen = append(keyLen, 0)
		}
		cons = append(cons, PathConstraint{
			ReqPS:   req,
			Rows:    contribs[cstart:len(contribs):len(contribs)],
			PathIdx: pathIdx,
		})
	}

	inst.Constraints = cons
	inst.Involved = growBools(inst.Involved, a.n)
	for i := range inst.Involved {
		inst.Involved[i] = false
	}
	inst.rowConsStart, inst.rowConsRefs = buildRowCons(a.n, cons, inst.Involved,
		inst.rowConsStart, inst.rowConsRefs)

	inst.contribArena = contribs
	inst.deltaArena = deltas
	inst.keyArena = keys
	inst.keyOff = keyOff
	inst.keyLen = keyLen
	inst.bnext = bnext
	return inst, nil
}

// keyHash hashes a merge key eight bytes at a time. Only bucket placement
// depends on it: a chain is searched with bytes.Equal and never holds two
// equal keys, so constraints, merge order and PathIdx do not.
func keyHash(key []byte) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(key)) * m
	for ; len(key) >= 8; key = key[8:] {
		h = bits.RotateLeft64((h^binary.LittleEndian.Uint64(key))*m, 29)
	}
	var tail uint64
	for i, b := range key {
		tail |= uint64(b) << (8 * i)
	}
	h = (h ^ tail) * m
	return h ^ h>>32
}

// Solve runs solver on the materialized instance (nil = the two-pass
// heuristic). The returned Solution may live in the Instance's scratch and
// is invalidated by the next solve or At on it; Clone it to keep it.
func (inst *Instance) Solve(solver Solver) (*Solution, error) {
	if solver == nil {
		return inst.solveHeuristic()
	}
	return solver.solve(inst)
}
