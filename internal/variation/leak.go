package variation

import (
	"repro/internal/place"
	"repro/internal/tech"
)

// LeakModel evaluates a sampled die's total leakage under row-level bias
// assignments. The scalar per-gate sum pays an exp-heavy
// tech.Process.LeakageFactorBias per gate per evaluation, and the
// tuning loop evaluates a die's leakage up to once per escalation on top of
// the unbiased baseline. The factorization is the separable form
// LeakageFactorBias computes: the subthreshold exponential splits into a
// per-die per-gate variation factor exp(-dvth/(n kT/q)) — computed once per
// die by SetDie — times a per-bias-level factor exp(-VthShift(vbs)/(n kT/q))
// — computed once per (placement, process) for the whole grid at
// construction — so evaluating any assignment is one multiply-add pass over
// the gates, bit-identical to the scalar path.
//
// Construction splits immutable from per-die state: the per-gate base
// leakage, the row map and the per-level tables never change and are shared
// by cloneInto; the per-die factors live in private scratch, so one
// LeakModel must not be used from more than one goroutine at a time.
// Population loops build one and clone it per worker (YieldStream's worker
// pool does).
type LeakModel struct {
	proc *tech.Process
	grid tech.BiasGrid
	// Immutable after construction, shared across clones.
	rowOf  []int
	baseNW []float64 // Cell.LeakNW per gate
	subW   []float64 // per level: SubthresholdFactor(Voltage(j))
	junc   []float64 // per level: JunctionFactor(Voltage(j))
	subShr float64   // 1 - GateLeakShare
	gls    float64   // GateLeakShare
	temp   float64   // TempLeakFactor
	// Per-die scratch.
	fsub []float64 // SubFactorDVth(DVthV[g]) of the die SetDie saw
	fblk []float64 // LeakageBlockNW's per-lane factors
}

// NewLeakModel precomputes the assignment-independent leakage structure of
// a placed design on a process: per-gate base leakage, the per-level bias
// factors of the whole grid, and the process constants.
func NewLeakModel(pl *place.Placement, proc *tech.Process) *LeakModel {
	n := len(pl.Design.Gates)
	lm := &LeakModel{
		proc:   proc,
		grid:   pl.Lib.Grid,
		rowOf:  pl.RowOf,
		baseNW: make([]float64, n),
		subShr: 1 - proc.GateLeakShare,
		gls:    proc.GateLeakShare,
		temp:   proc.TempLeakFactor(),
	}
	for g := 0; g < n; g++ {
		lm.baseNW[g] = pl.Design.Gates[g].Cell.LeakNW
	}
	levels := lm.grid.NumLevels()
	lm.subW = make([]float64, levels)
	lm.junc = make([]float64, levels)
	for j := 0; j < levels; j++ {
		v := lm.grid.Voltage(j)
		lm.subW[j] = proc.SubthresholdFactor(v)
		lm.junc[j] = proc.JunctionFactor(v)
	}
	return lm
}

// cloneInto makes dst a LeakModel sharing lm's immutable tables with
// private per-die scratch, the per-worker form of a shared model. dst's
// scratch buffers are kept for their capacity (a nil dst allocates a new
// model); no die is set until the next SetDie.
func (lm *LeakModel) cloneInto(dst *LeakModel) *LeakModel {
	if dst == nil {
		dst = &LeakModel{}
	}
	fsub, fblk := dst.fsub[:0], dst.fblk
	*dst = *lm
	dst.fsub, dst.fblk = fsub, fblk
	return dst
}

// SetDie computes the per-gate variation factors of the die — the only
// exp-heavy pass, paid once per die; every LeakageNW call after it is
// multiply-adds. The die's DVthV must cover the placement's gates.
func (lm *LeakModel) SetDie(die *Die) {
	n := len(lm.baseNW)
	if cap(lm.fsub) < n {
		lm.fsub = make([]float64, n)
	}
	lm.fsub = lm.fsub[:n]
	lm.proc.SubFactorsDVth(lm.fsub, die.DVthV[:n])
}

// LeakageNW returns the SetDie die's total leakage in nanowatts under a
// row-level assignment (nil = no body bias), bit-identical to the scalar
// per-gate sum of Cell.LeakNW × LeakageFactorBias(vbs, dvth).
func (lm *LeakModel) LeakageNW(assign []int) float64 {
	total := 0.0
	if assign == nil {
		w := lm.proc.SubthresholdFactor(0)
		j := lm.proc.JunctionFactor(0)
		for g, f := range lm.fsub {
			total += lm.baseNW[g] * ((lm.subShr*(w*f) + lm.gls + j) * lm.temp)
		}
		return total
	}
	for g, f := range lm.fsub {
		j := assign[lm.rowOf[g]]
		total += lm.baseNW[g] * ((lm.subShr*(lm.subW[j]*f) + lm.gls + lm.junc[j]) * lm.temp)
	}
	return total
}

// LeakageBlockNW computes the unbiased total leakage of the listed block
// lanes, appending to out in lane order. Per lane it is bit-identical to
// SetDie(blk.Die(d)) followed by LeakageNW(nil) — the same per-gate
// factorization evaluated in the same order — but stages the variation
// factors in private scratch, so lm.fsub (the SetDie die) is left
// untouched. The batch yield kernel uses it for the no-bias lanes of a
// block, whose leakage is the only thing still owed after the batched
// re-timing.
func (lm *LeakModel) LeakageBlockNW(blk *DieBlock, lanes []int, out []float64) []float64 {
	n := len(lm.baseNW)
	w := lm.proc.SubthresholdFactor(0)
	j := lm.proc.JunctionFactor(0)
	if cap(lm.fblk) < n {
		lm.fblk = make([]float64, n)
	}
	fs := lm.fblk[:n]
	for _, d := range lanes {
		lm.proc.SubFactorsDVth(fs, blk.DVthV[d*blk.N:d*blk.N+n])
		total := 0.0
		for g, f := range fs {
			total += lm.baseNW[g] * ((lm.subShr*(w*f) + lm.gls + j) * lm.temp)
		}
		out = append(out, total)
	}
	return out
}
