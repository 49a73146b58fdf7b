package spice

import (
	"errors"

	"repro/internal/tech"
)

// Transient simulation of a switching gate output.
//
// The discharge (or charge) path of a CMOS gate is a series stack of 1..n
// devices between the output node and a rail. The stack is driven with all
// gates at full swing (worst-case single-input switching uses a one-device
// stack). Internal stack nodes carry a small parasitic capacitance; the
// output carries the load.

// internalCapRatio is the parasitic capacitance of an internal stack node
// relative to the output load.
const internalCapRatio = 0.12

// StackDelay integrates the discharge of a unit load through a series stack
// of nSeries identical NMOS devices of the given width, each body-biased at
// vbs volts (bias referenced to the rail), and returns the 50% propagation
// delay in normalized time units.
//
// The same function characterizes PMOS stacks: with the paper's symmetric
// biasing (vbsn = vbs, vbsp = Vdd-vbs) both device types see the same
// source-body forward bias, and delay *ratios* across vbs are what matters.
func StackDelay(p *tech.Process, nSeries int, width, vbs float64) (float64, error) {
	if nSeries < 1 || nSeries > 4 {
		return 0, errors.New("spice: stack depth must be in [1,4]")
	}
	vdd := p.VddV
	dev := NewNMOS(p, width)

	// Node 0 is the output (cap 1), nodes 1..nSeries-1 are internal stack
	// nodes from top to bottom (cap internalCapRatio). Device i sits
	// between node i-1 (drain) and node i (source); the last device's
	// source is ground.
	v := make([]float64, nSeries)
	v[0] = vdd
	for i := 1; i < nSeries; i++ {
		// Internal nodes pre-charged one threshold below the rail,
		// the usual worst-case initial condition.
		v[i] = vdd - p.Vth0V
	}
	caps := make([]float64, nSeries)
	caps[0] = 1.0
	for i := 1; i < nSeries; i++ {
		caps[i] = internalCapRatio
	}

	deriv := func(v []float64, dv []float64) {
		for i := range dv {
			dv[i] = 0
		}
		for i := 0; i < nSeries; i++ {
			drain := v[i]
			src := 0.0
			if i+1 < nSeries {
				src = v[i+1]
			}
			vds := drain - src
			if vds < 0 {
				vds = 0
			}
			// Gate at Vdd; body tied to the bias rail at vbs above
			// ground, so the effective body-source bias shrinks as
			// the source node rises.
			id := dev.Ids(vdd-src, vds, vbs-src)
			dv[i] -= id / caps[i]
			if i+1 < nSeries {
				dv[i+1] += id / caps[i+1]
			}
		}
	}

	// Integrate with RK4 until the output crosses Vdd/2. The time scale
	// is set by C*Vdd/Idsat of the full stack; step small relative to it.
	idsat := dev.Ids(vdd, vdd, vbs) / float64(nSeries)
	if idsat <= 0 {
		return 0, errors.New("spice: stack conducts no current")
	}
	tScale := vdd / idsat
	dt := tScale / 400
	maxT := tScale * 50

	n := nSeries
	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	tmp := make([]float64, n)
	half := vdd / 2

	prevT, prevV := 0.0, v[0]
	for t := 0.0; t < maxT; t += dt {
		deriv(v, k1)
		for i := range tmp {
			tmp[i] = v[i] + 0.5*dt*k1[i]
		}
		deriv(tmp, k2)
		for i := range tmp {
			tmp[i] = v[i] + 0.5*dt*k2[i]
		}
		deriv(tmp, k3)
		for i := range tmp {
			tmp[i] = v[i] + dt*k3[i]
		}
		deriv(tmp, k4)
		for i := range v {
			v[i] += dt / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		if v[0] <= half {
			// Linear interpolation of the crossing instant.
			frac := (prevV - half) / (prevV - v[0])
			return prevT + frac*(t+dt-prevT), nil
		}
		prevT, prevV = t+dt, v[0]
	}
	return 0, errors.New("spice: output never crossed Vdd/2")
}

// DelayFactorSweep returns, for each level of the grid, the stack propagation
// delay relative to the NBB delay.
func DelayFactorSweep(p *tech.Process, nSeries int, width float64, grid tech.BiasGrid) ([]float64, error) {
	base, err := StackDelay(p, nSeries, width, 0)
	if err != nil {
		return nil, err
	}
	out := make([]float64, grid.NumLevels())
	for j := range out {
		d, err := StackDelay(p, nSeries, width, grid.Voltage(j))
		if err != nil {
			return nil, err
		}
		out[j] = d / base
	}
	return out, nil
}
