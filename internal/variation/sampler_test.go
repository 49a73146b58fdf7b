package variation

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/sta"
	"repro/internal/tech"
)

func newAnalyzer(t *testing.T, pl *place.Placement) *sta.Analyzer {
	t.Helper()
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// referenceSample is the pre-Sampler gate-major sampling loop, kept as the
// differential reference: per gate, the systematic waves are accumulated
// innermost with scalar math.Cos, and the delay factor is math.Pow. The Sampler sweeps wave-major into the die
// buffer instead, which must not move a single bit.
func referenceSample(m Model, pl *place.Placement, proc *tech.Process, seed int64) *Die {
	rng := rand.New(rand.NewSource(seed))
	n := len(pl.Design.Gates)
	die := &Die{
		Seed:       seed,
		DVthV:      make([]float64, n),
		DelayScale: make([]float64, n),
	}
	d2d := rng.NormFloat64() * m.SigmaD2DmV / 1000

	const waves = 6
	type wave struct{ kx, ky, phase, amp float64 }
	var ws []wave
	if m.SigmaSysmV > 0 && m.CorrLenUM > 0 {
		amp := m.SigmaSysmV / 1000 * math.Sqrt(2/float64(waves))
		for i := 0; i < waves; i++ {
			theta := rng.Float64() * 2 * math.Pi
			lambda := m.CorrLenUM * (0.7 + 0.6*rng.Float64())
			ws = append(ws, wave{
				kx:    2 * math.Pi / lambda * math.Cos(theta),
				ky:    2 * math.Pi / lambda * math.Sin(theta),
				phase: rng.Float64() * 2 * math.Pi,
				amp:   amp,
			})
		}
	}

	for g := 0; g < n; g++ {
		x, y := pl.GateCenter(netlist.GateID(g))
		sys := 0.0
		for _, w := range ws {
			sys += w.amp * math.Cos(w.kx*x+w.ky*y+w.phase)
		}
		dvth := d2d + sys + rng.NormFloat64()*m.SigmaRndmV/1000
		die.DVthV[g] = dvth
		// The alpha-power delay factor, spelled out with math.Pow so the
		// oracle does not share tech.Process.DelayFactorDVth's code.
		over0 := proc.VddV - proc.Vth0V + proc.DIBLOverdriveV
		over := max(over0-dvth, 0.05)
		die.DelayScale[g] = math.Pow(over0/over, proc.Alpha) * (1 + proc.TempDelayCoeff*(proc.TempK-tech.RoomTempK))
	}
	return die
}

func requireDieEqual(tb testing.TB, want, got *Die, label string) {
	tb.Helper()
	if want.Seed != got.Seed {
		tb.Fatalf("%s: seed %d, want %d", label, got.Seed, want.Seed)
	}
	if len(want.DVthV) != len(got.DVthV) || len(want.DelayScale) != len(got.DelayScale) {
		tb.Fatalf("%s: length mismatch", label)
	}
	for g := range want.DVthV {
		if want.DVthV[g] != got.DVthV[g] {
			tb.Fatalf("%s: DVthV[%d] = %v, want %v", label, g, got.DVthV[g], want.DVthV[g])
		}
		if want.DelayScale[g] != got.DelayScale[g] {
			tb.Fatalf("%s: DelayScale[%d] = %v, want %v", label, g, got.DelayScale[g], want.DelayScale[g])
		}
	}
}

// TestSampleIntoMatchesReference is the differential harness of the batched
// sampler: SampleInto into a dirty, continually reused buffer — and
// Model.Sample, which now rides it — must reproduce the pre-refactor
// gate-major loop bit for bit, across models with and without a systematic
// component.
func TestSampleIntoMatchesReference(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	models := []Model{
		Default(),
		{SigmaD2DmV: 30, SigmaSysmV: 0, SigmaRndmV: 5, CorrLenUM: 150}, // no waves
		{SigmaD2DmV: 0, SigmaSysmV: 25, SigmaRndmV: 0, CorrLenUM: 40},
	}
	for mi, m := range models {
		smp := NewSampler(pl, proc, m)
		var buf *Die
		for i := 0; i < 6; i++ {
			seed := DieSeed(int64(mi), i)
			want := referenceSample(m, pl, proc, seed)
			buf = smp.SampleInto(buf, seed)
			requireDieEqual(t, want, buf, "SampleInto")
			requireDieEqual(t, want, m.Sample(pl, proc, seed), "Model.Sample")
		}
	}
}

// TestSamplerCloneIndependence: clones share geometry but not generator
// state — interleaved draws on a clone must not perturb the original's
// population.
func TestSamplerCloneIndependence(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	m := Default()
	smp := NewSampler(pl, proc, m)
	cl := smp.cloneInto(nil)
	want7 := m.Sample(pl, proc, 7)
	want9 := m.Sample(pl, proc, 9)
	a := smp.SampleInto(nil, 7)
	b := cl.SampleInto(nil, 9) // interleaved on the clone
	requireDieEqual(t, want9, b, "clone")
	requireDieEqual(t, want7, a, "original before clone draw")
	requireDieEqual(t, want7, smp.SampleInto(a, 7), "original after clone draw")
}

// TestAgedIntoMatchesAged: the buffer-reusing aging form must be
// bit-identical to Die.Aged, including in-place aging and the years<=0
// copy-through.
func TestAgedIntoMatchesAged(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	m := Default()
	smp := NewSampler(pl, proc, m)
	var buf *Die
	for i := 0; i < 4; i++ {
		die := m.Sample(pl, proc, DieSeed(3, i))
		want := die.Aged(proc, 10, 0.8)
		buf = smp.AgedInto(buf, die, 10, 0.8)
		requireDieEqual(t, want, buf, "AgedInto")

		// years <= 0 must be a copy of the unaged die.
		fresh := smp.AgedInto(nil, die, 0, 0.8)
		requireDieEqual(t, die, fresh, "AgedInto years=0")

		// In-place aging: out == d.
		inPlace := m.Sample(pl, proc, DieSeed(3, i))
		requireDieEqual(t, want, smp.AgedInto(inPlace, inPlace, 10, 0.8), "AgedInto in place")
	}
}

// TestSampleIntoAllocFree: a warmed-up Sampler samples and ages dies with
// zero allocations — the property that makes a million-die stream a few
// array passes per die.
func TestSampleIntoAllocFree(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	smp := NewSampler(pl, proc, Default())
	die := smp.SampleInto(nil, 1)
	aged := smp.AgedInto(nil, die, 5, 0.5)
	i := 0
	if n := testing.AllocsPerRun(20, func() {
		i++
		smp.SampleInto(die, DieSeed(1, i))
		smp.AgedInto(aged, die, 5, 0.5)
	}); n != 0 {
		t.Errorf("warmed-up SampleInto+AgedInto allocate %v/op, want 0", n)
	}
}
