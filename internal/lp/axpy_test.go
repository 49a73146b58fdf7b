package lp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
)

// axpySpecials are the values a kernel most easily gets wrong: signed
// zeros, subnormals, infinities, NaNs with distinct payloads and signs, and
// magnitudes at the edges of the normal range.
var axpySpecials = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1050,
	math.MaxFloat64, -math.MaxFloat64, 0x1p-1022,
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123),
}

// axpySample draws a random finite value most of the time and a special one
// otherwise.
func axpySample(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return axpySpecials[rng.Intn(len(axpySpecials))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
}

// checkAxpy runs the assembly kernel and the portable loop on copies of y
// and compares every lane bit for bit, and that neither writes past
// len(y).
func checkAxpy(tb testing.TB, y, x []float64, f float64) {
	tb.Helper()
	n := len(y)
	want := append(append([]float64(nil), y...), 42)
	got := append(append([]float64(nil), y...), 42)
	axpyGo(want[:n], x, f)
	axpyAsm(got[:n], x, f)
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			tb.Fatalf("n=%d f=%v lane %d: y=%v x=%v: asm %v (%#x), Go %v (%#x)", n, f, j,
				y[min(j, n-1)], x[min(j, len(x)-1)], got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// TestAxpyMatchesScalar pins the AVX2 kernel to the portable loop bit for
// bit at every length from 0 to 67, so every tail of the 8-, 4- and 1-wide
// loops runs, with special values in both vectors and in f.
func TestAxpyMatchesScalar(t *testing.T) {
	if !cpufeat.AVX2() {
		t.Skip("no AVX2: axpy runs the portable loop")
	}
	rng := rand.New(rand.NewSource(5))
	fs := append([]float64{0.75, -3}, axpySpecials...)
	for n := 0; n <= 67; n++ {
		for _, f := range fs {
			y, x := make([]float64, n), make([]float64, n+1)
			for j := range y {
				y[j] = axpySample(rng)
			}
			for j := range x {
				x[j] = axpySample(rng)
			}
			checkAxpy(t, y, x, f)
		}
	}
	// Every special against every special, in every lane of a block.
	for _, a := range axpySpecials {
		for _, b := range axpySpecials {
			y, x := make([]float64, 11), make([]float64, 11)
			for j := range y {
				y[j], x[j] = a, b
			}
			for _, f := range axpySpecials {
				checkAxpy(t, y, x, f)
			}
		}
	}
}

func FuzzAxpy(f *testing.F) {
	f.Add(uint8(9), int64(1), 0.5)
	f.Add(uint8(67), int64(2), math.Inf(-1))
	f.Add(uint8(3), int64(3), math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, n uint8, seed int64, fv float64) {
		if !cpufeat.AVX2() {
			t.Skip("no AVX2: axpy runs the portable loop")
		}
		rng := rand.New(rand.NewSource(seed))
		y, x := make([]float64, int(n)), make([]float64, int(n))
		for j := range y {
			y[j], x[j] = axpySample(rng), axpySample(rng)
		}
		checkAxpy(t, y, x, fv)
	})
}
