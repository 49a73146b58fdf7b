package variation

import (
	"errors"
	"math/rand"

	"repro/internal/place"
	"repro/internal/sta"
	"repro/internal/tech"
)

// One-shot per-die references. The production loops run the batched forms
// (Retimer, LeakModel, Sampler.AgedInto); these independent paths are what
// the tests check them against.

// Timing runs STA at the die's corner. It rebuilds the timing graph every
// call; Retimer.TimeLight is the batched Dcrit-only form.
func (d *Die) Timing(pl *place.Placement) (*sta.Timing, error) {
	return sta.Analyze(pl, sta.Options{DelayScale: d.DelayScale})
}

// TimingWithBias runs STA with both the die's variation and a row-level
// body-bias assignment applied (one-shot; Retimer.TimeWithBiasLight is the
// batched Dcrit-only form).
func (d *Die) TimingWithBias(pl *place.Placement, proc *tech.Process, assign []int) (*sta.Timing, error) {
	if len(assign) != pl.NumRows {
		return nil, errors.New("variation: assignment length mismatch")
	}
	grid := pl.Lib.Grid
	scale := make([]float64, len(d.DelayScale))
	for g := range scale {
		vbs := grid.Voltage(assign[pl.RowOf[g]])
		scale[g] = proc.DelayFactorBias(vbs, d.DVthV[g])
	}
	return sta.Analyze(pl, sta.Options{DelayScale: scale})
}

// LeakageNW returns the die's total leakage under an assignment (nil for no
// body bias), accounting for the per-gate variation, in nanowatts. It is
// the scalar per-gate loop LeakModel reproduces bit for bit.
func (d *Die) LeakageNW(pl *place.Placement, proc *tech.Process, assign []int) float64 {
	grid := pl.Lib.Grid
	total := 0.0
	for g := range pl.Design.Gates {
		vbs := 0.0
		if assign != nil {
			vbs = grid.Voltage(assign[pl.RowOf[g]])
		}
		total += pl.Design.Gates[g].Cell.LeakNW * proc.LeakageFactorBias(vbs, d.DVthV[g])
	}
	return total
}

// Aged returns a copy of the die after NBTI-like aging: a t^0.16 threshold
// drift scaled by the activity factor, with 20% per-gate spread. It is the
// one-shot form of Sampler.AgedInto; controller loops that re-age one die
// repeatedly should reuse a buffer through a Sampler.
func (d *Die) Aged(proc *tech.Process, years, activity float64) *Die {
	if years <= 0 {
		return d
	}
	return agedInto(nil, d, rand.New(rand.NewSource(agingSeed(d.Seed))), proc, years, activity)
}
