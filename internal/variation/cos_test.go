package variation

import (
	"math"
	"math/rand"
	"testing"
)

// cosPaths runs fn once per cosWave path this host has: the AVX2 sweep when
// the CPU supports it, and always the portable loop, forced by clearing the
// cosAVX2 hook.
func cosPaths(tb testing.TB, fn func(path string)) {
	tb.Helper()
	saved := cosAVX2
	defer func() { cosAVX2 = saved }()
	if saved {
		fn("avx2")
	}
	cosAVX2 = false
	fn("scalar")
}

// checkCosWave runs cosWave on a copy of dv and compares every lane, bit for
// bit, with the scalar expression it replaces.
func checkCosWave(tb testing.TB, path string, dv, xs, ys []float64, kx, ky, phase, amp float64) {
	tb.Helper()
	got := append([]float64(nil), dv...)
	cosWave(got, xs, ys, kx, ky, phase, amp)
	for g := range xs {
		want := dv[g] + amp*math.Cos(kx*xs[g]+ky*ys[g]+phase)
		if math.Float64bits(got[g]) != math.Float64bits(want) {
			tb.Fatalf("%s: n=%d lane %d: arg %v: got %v (%#x), want %v (%#x)", path, len(xs), g,
				kx*xs[g]+ky*ys[g]+phase, got[g], math.Float64bits(got[g]), want, math.Float64bits(want))
		}
	}
	for g := len(xs); g < len(dv); g++ {
		if math.Float64bits(got[g]) != math.Float64bits(dv[g]) {
			tb.Fatalf("%s: n=%d: lane %d past the gates was written", path, len(xs), g)
		}
	}
}

// dirtyRow returns n finite, nonzero stand-ins for an accumulated row.
func dirtyRow(rng *rand.Rand, n int) []float64 {
	dv := make([]float64, n)
	for i := range dv {
		dv[i] = rng.NormFloat64() * 0.03
	}
	return dv
}

// TestCosSweepMatchesMathCos pins the AVX2 sweep and the portable loop to
// dv[g] += amp*math.Cos(kx*x+ky*y+phase) bit for bit: every length from 0
// to 67 (full blocks plus every tail), placement-scale and wide argument
// ranges, arguments on exact multiples of Pi/4 and their neighbours, and
// lanes math.Cos handles off the fast path (NaN, ±Inf, |arg| >= 2^29) at
// every position of a block.
func TestCosSweepMatchesMathCos(t *testing.T) {
	cosPaths(t, func(path string) {
		rng := rand.New(rand.NewSource(1))
		for n := 0; n <= 67; n++ {
			for _, span := range []float64{1, 400, 1e5, 1e8} {
				xs, ys := make([]float64, n), make([]float64, n)
				for g := range xs {
					xs[g] = rng.Float64() * span
					ys[g] = rng.Float64() * span
				}
				theta := rng.Float64() * 2 * math.Pi
				k := 2 * math.Pi / (50 + 100*rng.Float64())
				checkCosWave(t, path, dirtyRow(rng, n+3), xs, ys,
					k*math.Cos(theta), k*math.Sin(theta), rng.Float64()*2*math.Pi, 0.01+rng.Float64())
			}
		}

		// With kx=1, ky=0, phase=0 the argument is exactly xs[g].
		var args []float64
		for k := -80; k <= 80; k++ {
			a := float64(k) * (math.Pi / 4)
			args = append(args, a, math.Nextafter(a, math.Inf(1)), math.Nextafter(a, math.Inf(-1)))
		}
		lim := float64(1 << 29)
		args = append(args, 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
			math.Nextafter(lim, 0), -math.Nextafter(lim, 0), 5e8, 1e-300)
		checkCosWave(t, path, dirtyRow(rng, len(args)), args, make([]float64, len(args)), 1, 0, 0, 1)

		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), lim, -lim, 1e300}
		for _, sp := range specials {
			for pos := 0; pos < 12; pos++ {
				xs := make([]float64, 13)
				for g := range xs {
					xs[g] = rng.Float64() * 100
				}
				xs[pos] = sp
				checkCosWave(t, path, dirtyRow(rng, len(xs)), xs, make([]float64, len(xs)), 1, 0, 0, 0.5)
			}
		}
	})
}

// TestCosBlocksAVX2Coverage pins how far one sweep call gets: every full
// block of ordinary lanes, stopping exactly at the block that holds a lane
// math.Cos handles off its fast path. Equality alone cannot see a sweep
// that hands everything to the fallback.
func TestCosBlocksAVX2Coverage(t *testing.T) {
	if !cosAVX2 {
		t.Skip("no AVX2 on this host")
	}
	xs := make([]float64, 67)
	for g := range xs {
		xs[g] = float64(g) * 3.7
	}
	ys, dv := make([]float64, len(xs)), make([]float64, len(xs))
	if got := cosBlocksAVX2(dv, xs, ys, 1, 0, 0.5, 1); got != 64 {
		t.Fatalf("sweep did %d of 67 ordinary lanes, want 64", got)
	}
	for pos := range xs {
		saved := xs[pos]
		xs[pos] = math.NaN()
		if got, want := cosBlocksAVX2(dv, xs, ys, 1, 0, 0.5, 1), min(pos/4*4, 64); got != want {
			t.Fatalf("NaN at lane %d: sweep stopped after %d lanes, want %d", pos, got, want)
		}
		xs[pos] = saved
	}
}

// FuzzCosSweep drives both cosWave paths with arbitrary wave parameters and
// coordinate scales, and drops a special lane (NaN, Inf or a huge argument)
// at a fuzzed position.
func FuzzCosSweep(f *testing.F) {
	f.Add(int64(1), uint8(17), 0.05, -0.02, 1.3, 0.01, 300.0, uint8(255))
	f.Add(int64(2), uint8(64), 1.0, 0.0, 0.0, 1.0, 1e9, uint8(3))
	f.Add(int64(3), uint8(5), math.Pi/4, math.Pi/4, -math.Pi, 2.0, 8.0, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, kx, ky, phase, amp, span float64, special uint8) {
		rng := rand.New(rand.NewSource(seed))
		xs, ys := make([]float64, n), make([]float64, n)
		for g := range xs {
			xs[g] = (rng.Float64() - 0.25) * span
			ys[g] = (rng.Float64() - 0.25) * span
		}
		if int(special) < len(xs) {
			xs[special] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1 << 29, 1e300}[int(special)%5]
		}
		dv := dirtyRow(rng, len(xs))
		cosPaths(t, func(path string) {
			checkCosWave(t, path, dv, xs, ys, kx, ky, phase, amp)
		})
	})
}
