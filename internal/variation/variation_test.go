package variation

import (
	"math"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/place"
	"repro/internal/sta"
	"repro/internal/tech"
)

func placed(t testing.TB, name string) *place.Placement {
	t.Helper()
	l := cell.Default()
	d, err := gen.Build(name, l)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(d, l, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestSampleDeterministicAndScaled(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	m := Default()
	d1 := m.Sample(pl, proc, 42)
	d2 := m.Sample(pl, proc, 42)
	for g := range d1.DVthV {
		if d1.DVthV[g] != d2.DVthV[g] {
			t.Fatal("sampling not deterministic")
		}
	}
	d3 := m.Sample(pl, proc, 43)
	same := true
	for g := range d1.DVthV {
		if d1.DVthV[g] != d3.DVthV[g] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical dies")
	}
	// Delay scale consistent with the threshold shift.
	for g, dv := range d1.DVthV {
		want := proc.DelayFactorDVth(dv)
		if math.Abs(d1.DelayScale[g]-want) > 1e-12 {
			t.Fatalf("gate %d: scale %f, want %f", g, d1.DelayScale[g], want)
		}
	}
}

func TestVariationStatisticsSane(t *testing.T) {
	pl := placed(t, "c3540")
	proc := tech.Default45nm()
	m := Default()
	// Aggregate per-gate sigma over many dies should be near the
	// quadrature sum of the components.
	wantSigma := math.Sqrt(m.SigmaD2DmV*m.SigmaD2DmV+
		m.SigmaSysmV*m.SigmaSysmV+m.SigmaRndmV*m.SigmaRndmV) / 1000
	var sum, sumSq float64
	n := 0
	for seed := int64(0); seed < 40; seed++ {
		die := m.Sample(pl, proc, seed)
		for _, dv := range die.DVthV {
			sum += dv
			sumSq += dv * dv
			n++
		}
	}
	mean := sum / float64(n)
	sigma := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.005 {
		t.Errorf("mean shift %.4fV, want ~0", mean)
	}
	if sigma < wantSigma*0.7 || sigma > wantSigma*1.3 {
		t.Errorf("sigma %.4fV, want ~%.4fV", sigma, wantSigma)
	}
}

func TestSpatialCorrelation(t *testing.T) {
	// Neighbouring gates must be more alike than far-apart gates: the
	// systematic component is correlated.
	pl := placed(t, "c3540")
	proc := tech.Default45nm()
	m := Model{SigmaD2DmV: 0, SigmaSysmV: 20, SigmaRndmV: 0, CorrLenUM: 150}
	var nearSum, farSum float64
	var nearN, farN int
	for seed := int64(0); seed < 30; seed++ {
		die := m.Sample(pl, proc, seed)
		for g := 0; g+1 < len(die.DVthV); g += 7 {
			x1, y1 := pl.GateCenter(int32(g))
			for h := g + 1; h < len(die.DVthV); h += 97 {
				x2, y2 := pl.GateCenter(int32(h))
				dist := math.Hypot(x1-x2, y1-y2)
				diff := die.DVthV[g] - die.DVthV[h]
				if dist < 15 {
					nearSum += diff * diff
					nearN++
				} else if dist > 60 {
					farSum += diff * diff
					farN++
				}
			}
		}
	}
	if nearN == 0 || farN == 0 {
		t.Skip("placement too small for distance buckets")
	}
	near := nearSum / float64(nearN)
	far := farSum / float64(farN)
	if near >= far {
		t.Errorf("near-pair variance %g not below far-pair %g", near, far)
	}
}

func TestDieTimingSlowerForPositiveShift(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	nom, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := Model{SigmaD2DmV: 30, SigmaSysmV: 0, SigmaRndmV: 0}
	// Find a slow die (positive d2d shift).
	for seed := int64(0); seed < 20; seed++ {
		die := m.Sample(pl, proc, seed)
		if die.DVthV[0] <= 0.01 {
			continue
		}
		tm, err := die.Timing(pl)
		if err != nil {
			t.Fatal(err)
		}
		if tm.DcritPS <= nom.DcritPS {
			t.Errorf("slow die (dvth=%.3f) not slower: %f <= %f",
				die.DVthV[0], tm.DcritPS, nom.DcritPS)
		}
		return
	}
	t.Skip("no slow die found in 20 seeds")
}

func TestSensors(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	nom, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := Default()
	die := m.Sample(pl, proc, 7)
	dieTm, err := die.Timing(pl)
	if err != nil {
		t.Fatal(err)
	}
	truth := dieTm.DcritPS/nom.DcritPS - 1

	exact := InSituMonitor{}.MeasureBeta(nom, dieTm, die.Seed)
	if math.Abs(exact-truth) > 1e-9 {
		t.Errorf("exact monitor read %f, truth %f", exact, truth)
	}
	quant := InSituMonitor{ResolutionPct: 0.01}.MeasureBeta(nom, dieTm, die.Seed)
	if truth > 0 && (quant < truth-1e-9 || quant > truth+0.01+1e-9) {
		t.Errorf("quantized monitor read %f for truth %f", quant, truth)
	}
	replica := ReplicaSensor{Replicas: 16, NoisePct: 0.005, Seed: 1}.MeasureBeta(nom, dieTm, die.Seed)
	if truth > 0 && math.Abs(replica-truth) > 0.05 {
		t.Errorf("replica sensor read %f, truth %f", replica, truth)
	}
}

func TestTuneSlowDie(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	nom, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A uniformly slow die (pure die-to-die shift, well within range).
	m := Model{SigmaD2DmV: 25, SigmaSysmV: 4, SigmaRndmV: 3}
	for seed := int64(0); seed < 40; seed++ {
		die := m.Sample(pl, proc, seed)
		tm, err := die.Timing(pl)
		if err != nil {
			t.Fatal(err)
		}
		beta := tm.DcritPS/nom.DcritPS - 1
		if beta < 0.03 || beta > 0.12 {
			continue
		}
		r, err := TuneOn(freshTuner(t, pl, nom), nom, die, proc, TuneOptions{GuardbandPct: 0.005})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Met {
			t.Fatalf("seed %d: slow die (beta=%.1f%%) not compensated: %s",
				seed, beta*100, r.Reason)
		}
		if r.Solution == nil {
			t.Fatal("tuning reported met without a solution on a slow die")
		}
		if r.DcritAfterPS > nom.DcritPS*1.002 {
			t.Errorf("tuned Dcrit %f still above nominal %f", r.DcritAfterPS, nom.DcritPS)
		}
		if r.LeakAfterNW <= r.LeakBeforeNW {
			t.Error("FBB must cost leakage")
		}
		return
	}
	t.Skip("no die in the target slowdown window")
}

func TestTuneFastDieDoesNothing(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	nom, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := Model{SigmaD2DmV: 25, SigmaSysmV: 0, SigmaRndmV: 0}
	for seed := int64(0); seed < 40; seed++ {
		die := m.Sample(pl, proc, seed)
		if die.DVthV[0] >= -0.01 {
			continue // want a clearly fast die
		}
		r, err := TuneOn(freshTuner(t, pl, nom), nom, die, proc, TuneOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Met || r.Solution != nil {
			t.Errorf("fast die should pass untouched: met=%v sol=%v", r.Met, r.Solution)
		}
		if r.LeakAfterNW != r.LeakBeforeNW {
			t.Error("fast die leakage changed")
		}
		return
	}
	t.Skip("no fast die found")
}

func TestYieldStudyImprovesYield(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	st := yieldStudy(t, pl, proc, Default(), 60, 1000, TuneOptions{GuardbandPct: 0.005})
	before, after := st.YieldPct()
	t.Logf("yield %.0f%% -> %.0f%% (tuned dies: %d, failed: %d, mean leak %.0f -> %.0f nW)",
		before, after, st.TunedDies, st.FailedCompensations,
		st.MeanLeakBeforeNW, st.MeanLeakAfterNW)
	if after < before {
		t.Errorf("tuning reduced yield: %f -> %f", before, after)
	}
	if st.MetBefore == st.Dies {
		t.Skip("variation model produced no slow dies; nothing to verify")
	}
	if after <= before {
		t.Errorf("tuning did not improve yield (%f -> %f)", before, after)
	}
	if st.MeanLeakAfterNW <= st.MeanLeakBeforeNW {
		t.Error("compensation should cost average leakage")
	}
}

func TestAging(t *testing.T) {
	if AgingDVthV(0, 1) != 0 {
		t.Error("no aging at t=0")
	}
	ten := AgingDVthV(10, 1)
	if ten < 0.025 || ten > 0.035 {
		t.Errorf("10-year drift %.3fV, want ~0.030V", ten)
	}
	if AgingDVthV(1, 1) >= ten {
		t.Error("drift must grow with time")
	}
	if AgingDVthV(10, 0.5) >= ten {
		t.Error("drift must grow with activity")
	}

	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	die := Default().Sample(pl, proc, 3)
	aged := die.Aged(proc, 10, 1)
	fresh, err := die.Timing(pl)
	if err != nil {
		t.Fatal(err)
	}
	old, err := aged.Timing(pl)
	if err != nil {
		t.Fatal(err)
	}
	if old.DcritPS <= fresh.DcritPS {
		t.Error("aged die should be slower")
	}
}

func TestTimingWithBiasCompensates(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	m := Model{SigmaD2DmV: 20, SigmaSysmV: 0, SigmaRndmV: 0}
	for seed := int64(0); seed < 30; seed++ {
		die := m.Sample(pl, proc, seed)
		if die.DVthV[0] < 0.015 {
			continue
		}
		plain, err := die.Timing(pl)
		if err != nil {
			t.Fatal(err)
		}
		full := make([]int, pl.NumRows)
		for i := range full {
			full[i] = pl.Lib.Grid.NumLevels() - 1
		}
		biased, err := die.TimingWithBias(pl, proc, full)
		if err != nil {
			t.Fatal(err)
		}
		if biased.DcritPS >= plain.DcritPS {
			t.Error("full FBB did not speed the die up")
		}
		if die.LeakageNW(pl, proc, full) <= die.LeakageNW(pl, proc, nil) {
			t.Error("full FBB did not cost leakage")
		}
		return
	}
	t.Skip("no suitably slow die")
}
