package tech

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCalibrationAnchors(t *testing.T) {
	p := Default45nm()
	if got := p.Speedup(CalVbs); !almostEqual(got, CalSpeedup, 1e-6) {
		t.Errorf("speedup at %.2fV = %.6f, want %.2f", CalVbs, got, CalSpeedup)
	}
	if got := p.LeakageFactor(CalVbs); !almostEqual(got, CalLeakFactor, 1e-6) {
		t.Errorf("leakage factor at %.2fV = %.6f, want %.2f", CalVbs, got, CalLeakFactor)
	}
}

// TestDelayFactorMatchesPow pins DelayFactorDVth to the plain alpha-power
// formula with math.Pow, bit for bit, over a dense dvth grid that runs
// through the 0.05 V overdrive clamp, for exponents inside and outside the
// Exp/Log shortcut's domain and at two temperatures.
func TestDelayFactorMatchesPow(t *testing.T) {
	for _, alpha := range []float64{0.8, 1.0, 1.05, 1.3, 1.5, 2.0} {
		for _, tempK := range []float64{300, 370} {
			p := Default45nm().WithTemperature(tempK)
			p.Alpha = alpha
			over0 := p.VddV - p.Vth0V + p.DIBLOverdriveV
			for i := -12000; i <= 12000; i++ {
				dvth := float64(i) * 1e-4
				over := max(over0-dvth, 0.05)
				want := math.Pow(over0/over, alpha) * (1 + p.TempDelayCoeff*(tempK-RoomTempK))
				if got := p.DelayFactorDVth(dvth); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("alpha %v, %v K, dvth %v: got %v, want %v", alpha, tempK, dvth, got, want)
				}
			}
		}
	}
}

// TestAlphaPowMatchesPow checks alphaPow against math.Pow across the whole
// float range of r, including the edges of the shortcut's domain and the
// special values math.Pow treats separately.
func TestAlphaPowMatchesPow(t *testing.T) {
	rs := []float64{0, 1, 0x1p-600, 0x1p600, math.Nextafter(0x1p-600, 0), math.Nextafter(0x1p600, math.Inf(1)),
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.NaN(), -2}
	for e := -1074; e <= 1023; e += 7 {
		rs = append(rs, math.Ldexp(1.2345, e), math.Ldexp(1.9999, e))
	}
	for _, alpha := range []float64{0.5, 0.8, 1.0, 1.05, 1.3, 1.5, 1.7, 2.0, -1.3} {
		for _, r := range rs {
			got, want := alphaPow(r, alpha), math.Pow(r, alpha)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("alphaPow(%v, %v) = %v, math.Pow = %v", r, alpha, got, want)
			}
		}
	}
}

func TestNominalCornerIsUnity(t *testing.T) {
	p := Default45nm()
	if got := p.DelayFactor(0); !almostEqual(got, 1, 1e-12) {
		t.Errorf("DelayFactor(0) = %v, want 1", got)
	}
	if got := p.LeakageFactor(0); !almostEqual(got, 1, 1e-12) {
		t.Errorf("LeakageFactor(0) = %v, want 1", got)
	}
	if got := p.VthShift(0); !almostEqual(got, 0, 1e-12) {
		t.Errorf("VthShift(0) = %v, want 0", got)
	}
}

func TestDelayMonotoneDecreasingInVbs(t *testing.T) {
	p := Default45nm()
	prev := math.Inf(1)
	for vbs := 0.0; vbs <= 0.95; vbs += 0.01 {
		f := p.DelayFactor(vbs)
		if f >= prev {
			t.Fatalf("delay factor not strictly decreasing at vbs=%.2f: %v >= %v", vbs, f, prev)
		}
		prev = f
	}
}

func TestLeakageMonotoneIncreasingInVbs(t *testing.T) {
	p := Default45nm()
	prev := 0.0
	for vbs := 0.0; vbs <= 0.95; vbs += 0.01 {
		f := p.LeakageFactor(vbs)
		if f <= prev {
			t.Fatalf("leakage factor not strictly increasing at vbs=%.2f: %v <= %v", vbs, f, prev)
		}
		prev = f
	}
}

func TestJunctionDominatesBeyondHalfVolt(t *testing.T) {
	p := Default45nm()
	// At 0.5 V the junction is a minor contributor...
	if j := p.JunctionFactor(0.5); j > 1.0 {
		t.Errorf("junction at 0.5V = %v, want < 1 (minor)", j)
	}
	// ...but by 0.7 V it dwarfs the subthreshold component, which is why
	// the paper restricts vbs to [0, 0.5].
	j, s := p.JunctionFactor(0.7), p.SubthresholdFactor(0.7)
	if j < 10*s {
		t.Errorf("junction at 0.7V = %v should dominate subthreshold %v", j, s)
	}
}

func TestReverseBodyBiasSlowsAndSaves(t *testing.T) {
	p := Default45nm()
	// RBB (negative vbs) must increase delay and reduce leakage.
	if f := p.DelayFactor(-0.3); f <= 1 {
		t.Errorf("RBB delay factor = %v, want > 1", f)
	}
	if f := p.LeakageFactor(-0.3); f >= 1 {
		t.Errorf("RBB leakage factor = %v, want < 1", f)
	}
}

func TestSpeedupRoughlyLinear(t *testing.T) {
	// Figure 1 shows a (roughly) linear speed-up in vbs. Check that the
	// half-range speed-up is close to half the full-range one.
	p := Default45nm()
	half, full := p.Speedup(0.25), p.Speedup(0.5)
	ratio := half / full
	if ratio < 0.40 || ratio > 0.60 {
		t.Errorf("speedup(0.25)/speedup(0.5) = %.3f, want within [0.40, 0.60]", ratio)
	}
}

func TestTemperatureDerating(t *testing.T) {
	p := Default45nm()
	hot := p.WithTemperature(373)
	if hot.DelayFactor(0) <= p.DelayFactor(0) {
		t.Error("hot die should be slower")
	}
	if hot.LeakageFactor(0) <= 2 {
		t.Errorf("leakage at 373K = %v, want > 2x (doubles every %vK)",
			hot.LeakageFactor(0), p.LeakDoubleK)
	}
	// The original process must be untouched.
	if p.TempK != RoomTempK {
		t.Error("WithTemperature mutated the receiver")
	}
}

func TestDVthFactorsConsistentWithBias(t *testing.T) {
	// Applying a bias vbs must be identical to applying its VthShift as a
	// raw threshold shift for the delay model.
	p := Default45nm()
	for _, vbs := range []float64{0.05, 0.2, 0.35, 0.5} {
		a := p.DelayFactor(vbs)
		b := p.DelayFactorDVth(p.VthShift(vbs))
		if !almostEqual(a, b, 1e-12) {
			t.Errorf("vbs=%.2f: DelayFactor=%v != DelayFactorDVth=%v", vbs, a, b)
		}
	}
}

func TestDelayFactorBiasCancelsVariation(t *testing.T) {
	// A gate slowed by +dvth and compensated by a bias producing -dvth
	// must return exactly to nominal delay.
	p := Default45nm()
	vbs := 0.3
	dvth := -p.VthShift(vbs)
	if f := p.DelayFactorBias(vbs, dvth); !almostEqual(f, 1, 1e-12) {
		t.Errorf("compensated delay factor = %v, want 1", f)
	}
}

func TestPropertyFBBTradeoff(t *testing.T) {
	// Property: for any vbs in (0, 0.5], FBB is a strict speed/leakage
	// trade-off: faster and leakier, with leakage growing faster than
	// speed (the reason the paper uses FBB sparingly).
	p := Default45nm()
	f := func(raw float64) bool {
		vbs := math.Mod(math.Abs(raw), 0.5)
		if vbs < 1e-3 {
			vbs = 1e-3
		}
		sp := p.Speedup(vbs)
		lk := p.LeakageFactor(vbs)
		return sp > 0 && lk > 1 && lk-1 > sp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGridLevels(t *testing.T) {
	g := DefaultGrid()
	if got := g.NumLevels(); got != 11 {
		t.Fatalf("NumLevels = %d, want 11", got)
	}
	ls := g.Levels()
	if !almostEqual(ls[0], 0, 0) || !almostEqual(ls[10], 0.5, 1e-12) {
		t.Errorf("levels endpoints = %v, %v; want 0 and 0.5", ls[0], ls[10])
	}
	for j := 1; j < len(ls); j++ {
		if !almostEqual(ls[j]-ls[j-1], 0.05, 1e-12) {
			t.Errorf("level step %d = %v, want 0.05", j, ls[j]-ls[j-1])
		}
	}
}

func TestGridQuantizeUp(t *testing.T) {
	g := DefaultGrid()
	cases := []struct {
		v    float64
		want int
	}{
		{-0.1, 0}, {0, 0}, {0.001, 1}, {0.05, 1}, {0.051, 2},
		{0.249, 5}, {0.25, 5}, {0.49, 10}, {0.5, 10}, {0.9, 10},
	}
	for _, c := range cases {
		if got := g.QuantizeUp(c.v); got != c.want {
			t.Errorf("QuantizeUp(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestGridQuantizeUpNeverUnderCorrects(t *testing.T) {
	g := DefaultGrid()
	f := func(raw float64) bool {
		v := math.Mod(math.Abs(raw), 0.5)
		j := g.QuantizeUp(v)
		return g.Voltage(j) >= v-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGridPair(t *testing.T) {
	g := DefaultGrid()
	p := Default45nm()
	// Paper: "for NMOS starting from 0 to 0.5V in steps of 50mV and for
	// PMOS starting from 0.95 to 0.45".
	n0, p0 := g.Pair(p.VddV, 0)
	if n0 != 0 || !almostEqual(p0, 0.95, 1e-12) {
		t.Errorf("Pair(0) = %v,%v; want 0, 0.95", n0, p0)
	}
	n10, p10 := g.Pair(p.VddV, 10)
	if !almostEqual(n10, 0.5, 1e-12) || !almostEqual(p10, 0.45, 1e-12) {
		t.Errorf("Pair(10) = %v,%v; want 0.5, 0.45", n10, p10)
	}
}

func TestDegenerateGrid(t *testing.T) {
	g := BiasGrid{StepV: 0, MaxV: 0}
	if g.NumLevels() != 1 {
		t.Errorf("degenerate grid levels = %d, want 1 (NBB only)", g.NumLevels())
	}
	if g.Voltage(0) != 0 || g.Voltage(5) != 0 {
		t.Error("degenerate grid must always return 0V")
	}
}
