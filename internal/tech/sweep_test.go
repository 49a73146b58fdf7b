package tech

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cpufeat"
)

// sweepPaths runs fn once per sweep path this host has: the probed vector
// variant when there is one, and always the scalar loops, forced by
// clearing the sweepMode hook.
func sweepPaths(tb testing.TB, fn func(path string)) {
	tb.Helper()
	saved := sweepMode
	defer func() { sweepMode = saved }()
	if saved != sweepOff {
		fn([...]string{sweepPlain: "avx2", sweepFMA: "avx2+fma"}[saved])
	}
	sweepMode = sweepOff
	fn("scalar")
}

// sweepKind pairs a batch sweep with the scalar call it must reproduce.
type sweepKind struct {
	name   string
	batch  func(p *Process, dst, dvth []float64)
	scalar func(p *Process, dvth float64) float64
	// outside are shifts that put a lane off the kernel's exact window.
	outside []float64
}

var (
	delaySweep = sweepKind{"delay", (*Process).DelayFactorsDVth, (*Process).DelayFactorDVth,
		[]float64{-1e200, -math.MaxFloat64}}
	subSweep = sweepKind{"sub", (*Process).SubFactorsDVth, (*Process).SubFactorDVth,
		[]float64{30, -30, 1e300}}
)

// specials returns the lane values every block position is tried with:
// NaN, ±Inf and the kind's out-of-window shifts.
func (k sweepKind) specials() []float64 {
	return append([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}, k.outside...)
}

// checkSweep runs the batch sweep out of place into a dirty, longer dst and
// in place, and compares every lane, bit for bit, with the scalar call.
func checkSweep(tb testing.TB, path string, k sweepKind, p *Process, dvth []float64) {
	tb.Helper()
	n := len(dvth)
	got := make([]float64, n+3)
	for i := range got {
		got[i] = -7
	}
	k.batch(p, got, dvth)
	inPlace := slices.Clone(dvth)
	k.batch(p, inPlace, inPlace)
	for i, d := range dvth {
		want := math.Float64bits(k.scalar(p, d))
		if g := math.Float64bits(got[i]); g != want {
			tb.Fatalf("%s %s: n=%d lane %d: dvth %v: got %v (%#x), want %v (%#x)", path, k.name, n, i, d,
				got[i], g, math.Float64frombits(want), want)
		}
		if g := math.Float64bits(inPlace[i]); g != want {
			tb.Fatalf("%s %s in place: n=%d lane %d: dvth %v: got %#x, want %#x", path, k.name, n, i, d, g, want)
		}
	}
	for i := n; i < len(got); i++ {
		if got[i] != -7 {
			tb.Fatalf("%s %s: n=%d: lane %d past dvth was written", path, k.name, n, i)
		}
	}
}

// checkSweepRows checks every length 0..67 of a row drawn by draw, once
// clean and once with each special at each lane of the first and the last
// four, so it sits at every position of a leading block, of a later block
// and of the scalar tail.
func checkSweepRows(tb testing.TB, path string, k sweepKind, p *Process, specials []float64, draw func() float64) {
	tb.Helper()
	for n := 0; n <= 67; n++ {
		row := make([]float64, n)
		for i := range row {
			row[i] = draw()
		}
		checkSweep(tb, path, k, p, row)
		for _, s := range specials {
			for pos := range row {
				if pos >= 4 && pos < n-4 {
					continue
				}
				saved := row[pos]
				row[pos] = s
				checkSweep(tb, path, k, p, row)
				row[pos] = saved
			}
		}
	}
}

// sweepProcesses are the processes the sweep tests run on: the default at
// two temperatures and alphas at both ends of alphaPow's Exp/Log window
// and outside it (the delay sweep must then run scalar).
func sweepProcesses() []*Process {
	var ps []*Process
	for _, alpha := range []float64{1.3, 1.0, 1.5, 1.7, 0.9} {
		for _, tempK := range []float64{300, 370} {
			p := Default45nm().WithTemperature(tempK)
			p.Alpha = alpha
			ps = append(ps, p)
		}
	}
	return ps
}

// TestDelayFactorSweepMatchesScalar pins DelayFactorsDVth to
// DelayFactorDVth bit for bit on every length 0..67, for die-scale shifts,
// shifts that run through the 0.05 V overdrive clamp, and NaN, ±Inf and
// out-of-window lanes at every block position.
func TestDelayFactorSweepMatchesScalar(t *testing.T) {
	sweepPaths(t, func(path string) {
		rng := rand.New(rand.NewSource(1))
		for _, p := range sweepProcesses() {
			for _, sigma := range []float64{0.03, 0.3, 3} {
				checkSweepRows(t, path, delaySweep, p, delaySweep.specials(), func() float64 {
					return rng.NormFloat64() * sigma
				})
			}
		}
	})
}

// TestSubFactorSweepMatchesScalar pins SubFactorsDVth to SubFactorDVth bit
// for bit the same way, with shifts reaching the ±512 edge of the Exp
// window.
func TestSubFactorSweepMatchesScalar(t *testing.T) {
	sweepPaths(t, func(path string) {
		rng := rand.New(rand.NewSource(2))
		p := Default45nm()
		edge := 512 * p.subSlope()
		specials := append(subSweep.specials(), edge, -edge,
			math.Nextafter(edge, 0), math.Nextafter(-edge, 0), math.Nextafter(edge, 1), math.Nextafter(-edge, -1))
		for _, sigma := range []float64{0.03, 0.3, 6} {
			checkSweepRows(t, path, subSweep, p, specials, func() float64 {
				return rng.NormFloat64() * sigma
			})
		}
	})
}

// TestSweepExpDense walks the Exp argument through the whole window in
// small steps, exact multiples of Ln2/2 (where archExp's rounding of
// x*Log2e flips) and their neighbours, through both kernels.
func TestSweepExpDense(t *testing.T) {
	sweepPaths(t, func(path string) {
		p := Default45nm()
		slope := p.subSlope()
		var row []float64
		for x := -512.0; x <= 512; x += 0.0371 {
			row = append(row, -x*slope)
		}
		for k := -1477; k <= 1477; k++ {
			x := float64(k) * (math.Ln2 / 2)
			for _, v := range []float64{x, math.Nextafter(x, 1e9), math.Nextafter(x, -1e9)} {
				row = append(row, -v*slope)
			}
		}
		checkSweep(t, path, subSweep, p, row)
		// The delay sweep's Exp argument is (alpha-1)*Log(r): sweep r
		// over the clamp range and past it.
		row = row[:0]
		for d := -40.0; d <= 1; d += 0.00093 {
			row = append(row, d)
		}
		for _, pp := range sweepProcesses() {
			checkSweep(t, path, delaySweep, pp, row)
		}
	})
}

// TestSweepProbeSelectsVariant: on an AVX2 host the init probe must find
// the Exp variant this process's math.Exp runs, and the probes must tell
// the two variants apart, so a host never silently loses the vector path
// or picks the variant that differs in the last bit.
func TestSweepProbeSelectsVariant(t *testing.T) {
	if !cpufeat.AVX2() {
		if sweepMode != sweepOff {
			t.Fatalf("sweepMode = %d without AVX2", sweepMode)
		}
		t.Skip("no AVX2: the sweeps run the scalar loops")
	}
	if sweepMode == sweepOff {
		t.Fatal("AVX2 host, but neither Exp variant reproduced math.Exp/math.Log on the probes")
	}
	if !sweepMatches(sweepMode == sweepFMA) {
		t.Fatalf("selected variant %d no longer matches the probes", sweepMode)
	}
	if cpufeat.FMA() && sweepMatches(true) == sweepMatches(false) {
		t.Fatal("the probes do not tell archExp's FMA and non-FMA sequences apart")
	}
}

// fuzzSweep checks one fuzz input: for every length 0..67 a die-scale row
// drawn from seed, clean and with x at each position, on every path.
func fuzzSweep(t *testing.T, k sweepKind, p *Process, seed int64, x float64) {
	sweepPaths(t, func(path string) {
		rng := rand.New(rand.NewSource(seed))
		sigma := []float64{0.03, 0.3, 3}[rng.Intn(3)]
		checkSweepRows(t, path, k, p, append(k.specials(), x), func() float64 {
			return rng.NormFloat64() * sigma
		})
	})
}

// FuzzDelayFactorSweep: DelayFactorsDVth must equal DelayFactorDVth bit
// for bit for any lane value at any block position, on any process alpha
// and temperature, with the vector path on and forced off.
func FuzzDelayFactorSweep(f *testing.F) {
	f.Add(int64(1), 0.01, 1.3, 300.0)
	f.Add(int64(2), math.NaN(), 1.0, 370.0)
	f.Add(int64(3), -1e200, 1.5, 250.0)
	f.Add(int64(4), 0.6, 1.7, 300.0)
	f.Fuzz(func(t *testing.T, seed int64, x, alpha, tempK float64) {
		p := Default45nm().WithTemperature(tempK)
		p.Alpha = alpha
		fuzzSweep(t, delaySweep, p, seed, x)
	})
}

// FuzzSubFactorSweep: SubFactorsDVth must equal SubFactorDVth bit for bit
// for any lane value at any block position and any subthreshold ideality,
// with the vector path on and forced off.
func FuzzSubFactorSweep(f *testing.F) {
	f.Add(int64(1), 0.01, 1.0)
	f.Add(int64(2), math.Inf(-1), 1.0)
	f.Add(int64(3), 30.0, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, x, idealityScale float64) {
		p := Default45nm()
		p.SubIdeality *= idealityScale
		fuzzSweep(t, subSweep, p, seed, x)
	})
}

// BenchmarkDelayFactorsDVth and BenchmarkSubFactorsDVth time one sweep over
// a die-scale row (ns/op over 4096 gates) on each path.
func BenchmarkDelayFactorsDVth(b *testing.B) { benchSweep(b, delaySweep) }

func BenchmarkSubFactorsDVth(b *testing.B) { benchSweep(b, subSweep) }

func benchSweep(b *testing.B, k sweepKind) {
	p := Default45nm()
	rng := rand.New(rand.NewSource(1))
	row := make([]float64, 4096)
	for i := range row {
		row[i] = rng.NormFloat64() * 0.03
	}
	dst := make([]float64, len(row))
	sweepPaths(b, func(path string) {
		b.Run(path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.batch(p, dst, row)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(row)), "ns/gate")
		})
	})
}
