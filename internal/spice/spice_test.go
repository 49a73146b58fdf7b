package spice

import (
	"errors"
	"math"
	"testing"

	"repro/internal/tech"
)

func proc() *tech.Process { return tech.Default45nm() }

func TestDeviceRegions(t *testing.T) {
	p := proc()
	d := NewNMOS(p, 1)
	// Zero vds carries no current.
	if got := d.Ids(p.VddV, 0, 0); got != 0 {
		t.Errorf("Ids at vds=0 = %v, want 0", got)
	}
	// Strong inversion current must dwarf subthreshold current.
	on := d.Ids(p.VddV, p.VddV, 0)
	off := d.Ids(0, p.VddV, 0)
	if on/off < 1e3 {
		t.Errorf("on/off ratio = %v, want > 1e3", on/off)
	}
	// Saturation: current nearly flat beyond vdsat (DIBL gives it a
	// small positive slope).
	a := d.Ids(p.VddV, p.VddV, 0)
	b := d.Ids(p.VddV, p.VddV*0.9, 0)
	if a < b || a > 1.10*b {
		t.Errorf("saturation current not nearly flat: %v vs %v", a, b)
	}
	// Linear region: current rises with vds.
	lo := d.Ids(p.VddV, 0.05, 0)
	hi := d.Ids(p.VddV, 0.10, 0)
	if hi <= lo {
		t.Errorf("linear region not increasing: %v <= %v", hi, lo)
	}
}

func TestDeviceMonotoneInVgs(t *testing.T) {
	p := proc()
	d := NewNMOS(p, 1)
	prev := -1.0
	for vgs := 0.0; vgs <= p.VddV; vgs += 0.01 {
		id := d.Ids(vgs, p.VddV, 0)
		if id <= prev {
			t.Fatalf("Ids not increasing at vgs=%.2f: %v <= %v", vgs, id, prev)
		}
		prev = id
	}
}

func TestPMOSWeakerThanNMOS(t *testing.T) {
	p := proc()
	n := NewNMOS(p, 1)
	pm := NewPMOS(p, 1)
	if pm.Ids(p.VddV, p.VddV, 0) >= n.Ids(p.VddV, p.VddV, 0) {
		t.Error("unit PMOS should be weaker than unit NMOS")
	}
}

func TestTransientMatchesAlphaPowerModel(t *testing.T) {
	// The simulated inverter speed-up must track the closed-form
	// alpha-power prediction within a few percent across the FBB range.
	p := proc()
	for _, vbs := range []float64{0.1, 0.25, 0.4, 0.5} {
		sim, err := TransientSpeedup(p, vbs)
		if err != nil {
			t.Fatal(err)
		}
		model := p.Speedup(vbs)
		if math.Abs(sim-model) > 0.05*(1+model) {
			t.Errorf("vbs=%.2f: simulated speedup %.4f vs model %.4f", vbs, sim, model)
		}
	}
}

func TestFigure1Anchors(t *testing.T) {
	// The headline numbers of Figure 1: ~21% speed-up and ~12.74x leakage
	// at vbs = 0.5V, now obtained by simulation instead of calibration.
	p := proc()
	pts, err := Figure1Sweep(p, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var at05 SweepPoint
	for _, pt := range pts {
		if math.Abs(pt.Vbs-0.5) < 1e-9 {
			at05 = pt
		}
	}
	if math.Abs(at05.Speedup-tech.CalSpeedup) > 0.02 {
		t.Errorf("simulated speedup at 0.5V = %.4f, want ~%.2f", at05.Speedup, tech.CalSpeedup)
	}
	if math.Abs(at05.LeakFactor-tech.CalLeakFactor) > 0.80 {
		t.Errorf("simulated leakage at 0.5V = %.3f, want ~%.2f", at05.LeakFactor, tech.CalLeakFactor)
	}
}

func TestFigure1ShapeLinearDelayExponentialLeakage(t *testing.T) {
	p := proc()
	pts, err := Figure1Sweep(p, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Speed-up increases monotonically; leakage grows super-linearly.
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup <= pts[i-1].Speedup {
			t.Fatalf("speedup not increasing at vbs=%.2f", pts[i].Vbs)
		}
		if pts[i].LeakFactor <= pts[i-1].LeakFactor {
			t.Fatalf("leakage not increasing at vbs=%.2f", pts[i].Vbs)
		}
	}
	// Junction blow-up: leakage at 0.7V is at least 10x that at 0.5V,
	// while the speed-up gain over the same interval is modest.
	var l5, l7, s5, s7 float64
	for _, pt := range pts {
		if math.Abs(pt.Vbs-0.5) < 1e-9 {
			l5, s5 = pt.LeakFactor, pt.Speedup
		}
		if math.Abs(pt.Vbs-0.7) < 1e-9 {
			l7, s7 = pt.LeakFactor, pt.Speedup
		}
	}
	if l7 < 10*l5 {
		t.Errorf("leakage blow-up 0.5->0.7V = %.1fx, want >= 10x", l7/l5)
	}
	if s7-s5 > 0.15 {
		t.Errorf("speedup gain 0.5->0.7V = %.3f, expected modest (< 0.15)", s7-s5)
	}
}

func TestStackEffectReducesLeakage(t *testing.T) {
	p := proc()
	i1, err := OffCurrent(p, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := OffCurrent(p, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	i3, err := OffCurrent(p, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(i3 < i2 && i2 < i1) {
		t.Fatalf("stack effect violated: i1=%v i2=%v i3=%v", i1, i2, i3)
	}
	// A 2-stack typically leaks several times less than a single device.
	if i1/i2 < 2 {
		t.Errorf("2-stack reduction = %.2fx, want >= 2x", i1/i2)
	}
}

func TestStackDelaySlower(t *testing.T) {
	p := proc()
	d1, err := StackDelay(p, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := StackDelay(p, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d1 {
		t.Errorf("2-stack delay %v should exceed single-device delay %v", d2, d1)
	}
	// Doubling width halves the single-device delay (normalized load).
	dw, err := StackDelay(p, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dw*2-d1) > 0.05*d1 {
		t.Errorf("width scaling: 2x device delay %v, want ~%v/2", dw, d1)
	}
}

func TestStackedDelayFactorsCloseToSingle(t *testing.T) {
	// FBB relative delay improvement should be similar for stacked and
	// single-device gates (the allocator assumes per-cell factors).
	p := proc()
	g := tech.DefaultGrid()
	f1, err := DelayFactorSweep(p, 1, 1, g)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := DelayFactorSweep(p, 2, 1, g)
	if err != nil {
		t.Fatal(err)
	}
	for j := range f1 {
		if math.Abs(f1[j]-f2[j]) > 0.05 {
			t.Errorf("level %d: single %0.4f vs stack %0.4f differ > 0.05", j, f1[j], f2[j])
		}
	}
}

func TestLeakFactorSweepAnchoredAtUnity(t *testing.T) {
	p := proc()
	g := tech.DefaultGrid()
	for _, n := range []int{1, 2, 3} {
		fs, err := LeakFactorSweep(p, n, g)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fs[0]-1) > 1e-9 {
			t.Errorf("stack %d: leak factor at NBB = %v, want 1", n, fs[0])
		}
		for j := 1; j < len(fs); j++ {
			if fs[j] <= fs[j-1] {
				t.Errorf("stack %d: leak factors not increasing at level %d", n, j)
			}
		}
	}
}

func TestStackDepthValidation(t *testing.T) {
	p := proc()
	if _, err := StackDelay(p, 0, 1, 0); err == nil {
		t.Error("StackDelay accepted depth 0")
	}
	if _, err := StackDelay(p, 5, 1, 0); err == nil {
		t.Error("StackDelay accepted depth 5")
	}
	if _, err := OffCurrent(p, 0, 0); err == nil {
		t.Error("OffCurrent accepted depth 0")
	}
}

// NewPMOS returns a PMOS of the given width in the given process.
func NewPMOS(p *tech.Process, width float64) Device {
	return Device{Proc: p, Width: width, PMOS: true, SatKv: 0.6, DIBLEta: 0.08}
}

// TransientSpeedup returns the fractional speed-up of a single-device stack
// at bias vbs versus NBB, as measured by the transient solver. This is the
// simulated counterpart of tech.Process.Speedup and reproduces the delay
// series of the paper's Figure 1.
func TransientSpeedup(p *tech.Process, vbs float64) (float64, error) {
	base, err := StackDelay(p, 1, 1, 0)
	if err != nil {
		return 0, err
	}
	d, err := StackDelay(p, 1, 1, vbs)
	if err != nil {
		return 0, err
	}
	if d <= 0 || math.IsNaN(d) {
		return 0, errors.New("spice: bad transient delay")
	}
	return base/d - 1, nil
}
