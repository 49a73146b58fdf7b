// Package spice is a small circuit-level simulator used to characterize
// standard cells under body bias. It implements the Sakurai-Newton
// alpha-power-law MOSFET model with subthreshold conduction and the forward
// source-body junction diode, a fixed-step transient solver for gate
// switching, and a DC solver for stacked off-state leakage.
//
// The paper characterized its 45nm library with SPICE (Figure 1); this
// package plays that role. Currents are normalized (unit transconductance for
// a unit-width NMOS), which is sufficient because every consumer uses ratios
// relative to the no-body-bias corner.
package spice

import (
	"math"

	"repro/internal/tech"
)

// Device is a MOSFET instance. Voltages passed to its methods are magnitudes
// referenced to the source terminal, so PMOS devices are handled by the
// caller mirroring voltages.
type Device struct {
	Proc *tech.Process
	// Width is the channel width relative to a unit NMOS.
	Width float64
	// SatKv sets the saturation-voltage coefficient of the alpha-power
	// model: Vdsat = SatKv * (Vgs-Vth)^(Alpha/2). The default 0.6 reflects
	// strong velocity saturation at 45nm (Vdsat well below Vdd/2 at full
	// overdrive), which keeps the half-swing crossing inside saturation.
	SatKv float64
	// DIBLEta is the drain-induced barrier lowering coefficient:
	// Vth_eff = Vth - DIBLEta*Vds. DIBL is what makes stacked OFF
	// devices leak several times less than a single one.
	DIBLEta float64
}

// NewNMOS returns a unit NMOS in the given process.
func NewNMOS(p *tech.Process, width float64) Device {
	return Device{Proc: p, Width: width, SatKv: 0.6, DIBLEta: 0.08}
}

// subI0 is the subthreshold current prefactor, chosen for rough continuity
// with the strong-inversion branch at Vgs = Vth.
func (d Device) subI0() float64 {
	nvt := d.Proc.SubIdeality * d.Proc.ThermalVoltage()
	return d.Width * math.Pow(nvt, d.Proc.Alpha)
}

// Ids returns the drain-source current for gate-source voltage vgs,
// drain-source voltage vds and body-source voltage vbs (all magnitudes,
// vds >= 0). The model is piecewise: subthreshold exponential below Vth,
// Sakurai-Newton alpha-power law above it (continuity enforced by adding the
// boundary subthreshold current to the strong-inversion branch), with DIBL
// lowering the effective threshold as Vds grows.
func (d Device) Ids(vgs, vds, vbs float64) float64 {
	if vds <= 0 {
		return 0
	}
	p := d.Proc
	vth := p.Vth(vbs) - d.DIBLEta*vds
	vt := p.ThermalVoltage()
	nvt := p.SubIdeality * vt
	drainTerm := 1 - math.Exp(-vds/vt)
	if vgs <= vth {
		return d.subI0() * math.Exp((vgs-vth)/nvt) * drainTerm
	}
	boundary := d.subI0() * drainTerm
	over := vgs - vth
	idsat := d.Width * math.Pow(over, p.Alpha)
	vdsat := d.SatKv * math.Pow(over, p.Alpha/2)
	if vds >= vdsat {
		return idsat + boundary
	}
	x := vds / vdsat
	return idsat*x*(2-x) + boundary
}
