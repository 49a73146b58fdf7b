package tech

import (
	"fmt"
	"math"
)

// BiasGrid is the discrete set of body bias voltages a generator can produce.
// The paper assumes a 50 mV resolution up to 0.5 V, giving P = 11 levels
// {0, 0.05, ..., 0.5}; level 0 is no body bias (NBB).
type BiasGrid struct {
	// StepV is the generator resolution in volts (50 mV in the paper,
	// 32 mV achievable per Tschanz et al.).
	StepV float64
	// MaxV is the maximum forward bias in volts (0.5 V: beyond it the
	// forward junction current dominates).
	MaxV float64
}

// DefaultGrid returns the paper's 50 mV / 0.5 V grid with 11 levels.
func DefaultGrid() BiasGrid { return BiasGrid{StepV: 0.05, MaxV: 0.5} }

// NumLevels returns P, the number of available bias voltages including NBB.
func (g BiasGrid) NumLevels() int {
	if g.StepV <= 0 || g.MaxV < 0 {
		return 1
	}
	return int(math.Round(g.MaxV/g.StepV)) + 1
}

// Voltage returns the bias voltage of level j in [0, NumLevels).
func (g BiasGrid) Voltage(j int) float64 {
	if j <= 0 {
		return 0
	}
	v := float64(j) * g.StepV
	if v > g.MaxV {
		v = g.MaxV
	}
	return v
}

// Pair returns the NMOS and PMOS bias voltages distributed for level j, as in
// the paper: vbsn = vbs and vbsp = Vdd - vbs.
func (g BiasGrid) Pair(vdd float64, j int) (vbsn, vbsp float64) {
	v := g.Voltage(j)
	return v, vdd - v
}

// String implements fmt.Stringer.
func (g BiasGrid) String() string {
	return fmt.Sprintf("grid(%d levels, %.0fmV step, max %.2fV)",
		g.NumLevels(), g.StepV*1000, g.MaxV)
}
