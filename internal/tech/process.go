// Package tech models a 45nm-class CMOS technology with adaptive body bias.
//
// The model follows the device behaviour reported in the paper's Figure 1 for
// a 45nm SOI process: forward body bias (FBB) lowers the threshold voltage
// through the body effect, which speeds gates up roughly linearly in vbs while
// growing leakage exponentially. Beyond vbs = 0.5 V the forward source-body
// junction turns on and leakage explodes, which is why the usable grid stops
// at 0.5 V.
//
// The default process is calibrated analytically so that an inverter at
// vbs = 0.5 V shows a 21% speed-up and a 12.74x total leakage increase over
// no body bias (NBB), the two anchor points the paper reports.
package tech

import (
	"fmt"
	"math"
)

// Physical constants.
const (
	// BoltzmannEV is Boltzmann's constant in eV/K, so that the thermal
	// voltage kT/q in volts is BoltzmannEV * T.
	BoltzmannEV = 8.617333262e-5
	// RoomTempK is the nominal characterization temperature.
	RoomTempK = 300.0
)

// Calibration anchor points from the paper's Figure 1 (45nm SOI inverter).
const (
	// CalVbs is the body bias voltage at which the anchors are specified.
	CalVbs = 0.5
	// CalSpeedup is the delay speed-up at CalVbs relative to NBB.
	CalSpeedup = 0.21
	// CalLeakFactor is the total leakage increase at CalVbs relative to NBB.
	CalLeakFactor = 12.74
	// CalJunctionShare is the portion of CalLeakFactor contributed by the
	// forward source-body junction at CalVbs. It is small at 0.5 V but
	// grows so fast above it that it bounds the usable bias range.
	CalJunctionShare = 0.44
)

// Process holds the parameters of a body-biasable CMOS process. All factors
// produced by its methods are relative to the nominal corner: vbs = 0,
// zero threshold shift, T = 300 K.
type Process struct {
	Name string

	// VddV is the supply voltage in volts. The paper sweeps vbs up to
	// "0.95V (Vdd)", so the default process uses 0.95 V.
	VddV float64
	// Vth0V is the nominal threshold voltage magnitude at zero body bias.
	Vth0V float64
	// Alpha is the velocity-saturation exponent of the alpha-power law
	// delay model: delay ~ Vdd / (Vdd - Vth)^Alpha.
	Alpha float64
	// GammaBB is the body-effect coefficient in V^0.5:
	// Vth(vbs) = Vth0 + GammaBB*(sqrt(PhiS - vbs) - sqrt(PhiS)).
	GammaBB float64
	// PhiSV is the surface potential 2*phiF in volts.
	PhiSV float64
	// SubIdeality is the subthreshold slope ideality factor n, so leakage
	// scales as exp(-dVth / (n * kT/q)).
	SubIdeality float64
	// GateLeakShare is the fraction of nominal leakage due to gate
	// tunnelling, which does not respond to body bias.
	GateLeakShare float64
	// JunctionScale is the source-body diode saturation current relative
	// to the total nominal leakage.
	JunctionScale float64
	// JunctionIdeality is the diode ideality factor of the source-body
	// junction.
	JunctionIdeality float64
	// DIBLOverdriveV is the average overdrive contribution of
	// drain-induced barrier lowering along a switching trajectory
	// (eta * <Vds>). It enlarges the effective overdrive and therefore
	// dilutes the delay sensitivity to threshold shifts, matching what
	// the transient simulator observes.
	DIBLOverdriveV float64

	// TempK is the operating temperature in kelvin.
	TempK float64
	// TempDelayCoeff is the relative delay increase per kelvin above 300 K
	// (mobility degradation).
	TempDelayCoeff float64
	// LeakDoubleK is the temperature increase in kelvin that doubles
	// subthreshold leakage.
	LeakDoubleK float64

	// MaxSafeVbs is the maximum forward body bias before the source-body
	// junction current makes FBB counterproductive (0.5 V in the paper).
	MaxSafeVbs float64
}

// Default45nm returns the 45nm-class process used throughout the library,
// calibrated in closed form to the paper's Figure 1 anchor points.
func Default45nm() *Process {
	p := &Process{
		Name:             "generic45soi",
		VddV:             0.95,
		Vth0V:            0.35,
		Alpha:            1.3,
		PhiSV:            0.85,
		GateLeakShare:    0.15,
		JunctionIdeality: 1.0,
		DIBLOverdriveV:   0.057, // eta=0.08 times <Vds> ~ 0.75*Vdd
		TempK:            RoomTempK,
		TempDelayCoeff:   0.0008,
		LeakDoubleK:      25.0,
		MaxSafeVbs:       0.5,
	}
	p.calibrate()
	return p
}

// calibrate solves GammaBB, SubIdeality and JunctionScale so the process hits
// the Figure 1 anchors exactly.
func (p *Process) calibrate() {
	vt := BoltzmannEV * RoomTempK
	// Threshold shift needed at CalVbs for the target speed-up under the
	// alpha-power law, including the DIBL overdrive boost.
	overdrive := p.VddV - p.Vth0V + p.DIBLOverdriveV
	dvth := overdrive * (math.Pow(1+CalSpeedup, 1/p.Alpha) - 1)
	p.GammaBB = dvth / (math.Sqrt(p.PhiSV) - math.Sqrt(p.PhiSV-CalVbs))
	// Subthreshold ideality so that the bias-responsive share of leakage
	// reaches the target total minus the gate and junction contributions.
	subFactor := (CalLeakFactor - p.GateLeakShare - CalJunctionShare) / (1 - p.GateLeakShare)
	p.SubIdeality = dvth / (vt * math.Log(subFactor))
	// Diode scale so the junction contributes its share at CalVbs.
	p.JunctionScale = CalJunctionShare / (math.Exp(CalVbs/(p.JunctionIdeality*vt)) - 1)
}

// ThermalVoltage returns kT/q in volts at the process temperature.
func (p *Process) ThermalVoltage() float64 { return BoltzmannEV * p.TempK }

// VthShift returns the threshold voltage change (in volts) caused by a body
// bias of vbs volts. Forward bias (vbs > 0) gives a negative shift; reverse
// bias (vbs < 0) a positive one. The square-root depletion model breaks down
// as vbs approaches the surface potential, so above PhiS-0.1 the curve is
// continued linearly (C1-smooth), matching the near-linear tail of Figure 1.
func (p *Process) VthShift(vbs float64) float64 {
	knee := p.PhiSV - 0.1
	if vbs <= knee {
		return p.GammaBB * (math.Sqrt(p.PhiSV-vbs) - math.Sqrt(p.PhiSV))
	}
	atKnee := p.GammaBB * (math.Sqrt(p.PhiSV-knee) - math.Sqrt(p.PhiSV))
	slope := -p.GammaBB / (2 * math.Sqrt(p.PhiSV-knee))
	return atKnee + slope*(vbs-knee)
}

// Vth returns the threshold voltage at the given body bias.
func (p *Process) Vth(vbs float64) float64 { return p.Vth0V + p.VthShift(vbs) }

// DelayFactor returns the gate delay at body bias vbs relative to the nominal
// delay (vbs = 0, 300 K). FBB gives factors below one.
func (p *Process) DelayFactor(vbs float64) float64 {
	return p.DelayFactorDVth(p.VthShift(vbs))
}

// DelayFactorDVth returns the relative delay for an arbitrary threshold
// voltage shift dvth (e.g. from process variation or aging). Positive shifts
// slow the gate down.
func (p *Process) DelayFactorDVth(dvth float64) float64 {
	over0 := p.overdrive0()
	over := over0 - dvth
	if over < 0.05 {
		over = 0.05 // near/below-threshold clamp: extremely slow, not infinite
	}
	return alphaPow(over0/over, p.Alpha) * p.tempDelayFactor()
}

// overdrive0 is the nominal effective overdrive Vdd - Vth0 + DIBL, the
// numerator of every delay ratio.
func (p *Process) overdrive0() float64 { return p.VddV - p.Vth0V + p.DIBLOverdriveV }

// alphaPow returns math.Pow(r, alpha) bit for bit, faster on the domain the
// sampler and re-timer live on. For 1 <= alpha <= 1.5, math.Modf splits
// alpha into 1 and yf = alpha-1 (exact), and math.Pow computes
// Exp(yf*Log(r)) times the Frexp mantissa of r, then Ldexp-scales by r's
// binary exponent. While the product stays a normal number (r within
// [2^-600, 2^600] guarantees it), that scaling by a power of two commutes
// with the rounding, so Exp(yf*Log(r))*r is the same float. Outside that
// domain it defers to math.Pow.
func alphaPow(r, alpha float64) float64 {
	if alpha >= 1 && alpha <= 1.5 && r >= 0x1p-600 && r <= 0x1p600 {
		return math.Exp((alpha-1)*math.Log(r)) * r
	}
	return math.Pow(r, alpha)
}

// Speedup returns the fractional speed-up at body bias vbs relative to NBB:
// 0.21 means 21% faster.
func (p *Process) Speedup(vbs float64) float64 {
	return 1/p.DelayFactor(vbs) - 1
}

// SubthresholdFactor returns the subthreshold leakage increase at vbs
// relative to nominal subthreshold leakage.
func (p *Process) SubthresholdFactor(vbs float64) float64 {
	return p.SubFactorDVth(p.VthShift(vbs))
}

// SubFactorDVth returns the subthreshold leakage factor of a bare threshold
// shift: exp(-dvth / (n kT/q)). It is one of the two separable factors of
// LeakageFactorBias, which batched leakage evaluation (variation.LeakModel)
// precomputes per die; the per-bias-level factor is SubthresholdFactor.
func (p *Process) SubFactorDVth(dvth float64) float64 {
	return math.Exp(-dvth / p.subSlope())
}

// subSlope is the subthreshold slope n kT/q at the 300 K characterization
// temperature.
func (p *Process) subSlope() float64 { return p.SubIdeality * BoltzmannEV * RoomTempK }

// JunctionFactor returns the forward source-body junction current at vbs,
// expressed relative to the total nominal leakage. It is negligible below
// 0.5 V and explodes beyond it, which is what limits the usable FBB range.
func (p *Process) JunctionFactor(vbs float64) float64 {
	if vbs <= 0 {
		return 0
	}
	vt := BoltzmannEV * RoomTempK
	return p.JunctionScale * (math.Exp(vbs/(p.JunctionIdeality*vt)) - 1)
}

// LeakageFactor returns the total leakage at body bias vbs relative to NBB at
// the process temperature. The total is composed of a bias-responsive
// subthreshold part, a bias-insensitive gate-leakage part and the forward
// junction diode current.
func (p *Process) LeakageFactor(vbs float64) float64 {
	f := (1-p.GateLeakShare)*p.SubthresholdFactor(vbs) + p.GateLeakShare + p.JunctionFactor(vbs)
	return f * p.tempLeakFactor()
}

// LeakageFactorDVth returns the relative leakage for an arbitrary threshold
// shift dvth with no body bias applied.
func (p *Process) LeakageFactorDVth(dvth float64) float64 {
	f := (1-p.GateLeakShare)*p.SubFactorDVth(dvth) + p.GateLeakShare
	return f * p.tempLeakFactor()
}

// DelayFactorBias combines a body bias with an extra threshold shift, as seen
// by a gate on a die with process variation dvth that receives FBB vbs.
func (p *Process) DelayFactorBias(vbs, dvth float64) float64 {
	return p.DelayFactorDVth(p.VthShift(vbs) + dvth)
}

// LeakageFactorBias combines a body bias with an extra threshold shift. The
// subthreshold term is evaluated in separable form — the bias factor
// exp(-VthShift(vbs)/(n kT/q)) times the variation factor exp(-dvth/(n kT/q))
// — which is the same exponential in exact arithmetic but lets a population
// loop precompute the per-die factor once and the per-level factor once per
// grid (variation.LeakModel reduces every per-assignment evaluation to one
// multiply-add pass that reproduces this function bit for bit).
func (p *Process) LeakageFactorBias(vbs, dvth float64) float64 {
	f := (1-p.GateLeakShare)*(p.SubthresholdFactor(vbs)*p.SubFactorDVth(dvth)) +
		p.GateLeakShare + p.JunctionFactor(vbs)
	return f * p.tempLeakFactor()
}

func (p *Process) tempDelayFactor() float64 {
	return 1 + p.TempDelayCoeff*(p.TempK-RoomTempK)
}

func (p *Process) tempLeakFactor() float64 {
	return math.Exp2((p.TempK - RoomTempK) / p.LeakDoubleK)
}

// TempLeakFactor returns the temperature derating every leakage factor is
// multiplied by (1.0 at 300 K, doubling every LeakDoubleK kelvin).
func (p *Process) TempLeakFactor() float64 { return p.tempLeakFactor() }

// WithTemperature returns a copy of the process at the given temperature.
// Delay and leakage factors of the copy include the temperature derating
// relative to 300 K.
func (p *Process) WithTemperature(tempK float64) *Process {
	q := *p
	q.TempK = tempK
	return &q
}

// String implements fmt.Stringer.
func (p *Process) String() string {
	return fmt.Sprintf("%s: Vdd=%.2fV Vth0=%.2fV alpha=%.2f gamma=%.3f n=%.3f",
		p.Name, p.VddV, p.Vth0V, p.Alpha, p.GammaBB, p.SubIdeality)
}
