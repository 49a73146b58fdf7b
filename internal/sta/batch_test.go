package sta

import (
	"math"
	"math/rand"
	"testing"
)

// lanePaths returns the lane-kernel settings a batch test must cover: the
// portable Go loops, and the AVX2 kernel where the host has it.
func lanePaths() []bool {
	if lanesAVX2 {
		return []bool{true, false}
	}
	return []bool{false}
}

// withLanes runs f with the AVX2 lane kernel switched on or off.
func withLanes(avx2 bool, f func()) {
	defer func(saved bool) { lanesAVX2 = saved }(lanesAVX2)
	lanesAVX2 = avx2
	f()
}

// TestRunLightBatchMatchesRunLight: every lane of a batched re-timing must
// be bit-identical to a scalar RunLight of that die — per-gate delays,
// arrivals, tails, and the critical delay — across random DAGs, widths that
// give the AVX2 kernel whole blocks, leftover lanes or both, a lane of
// nominal (all-ones) scale and a lane of signed zeros mixed among perturbed
// ones, on the AVX2 kernel and on the Go loops.
func TestRunLightBatchMatchesRunLight(t *testing.T) {
	for _, avx2 := range lanePaths() {
		withLanes(avx2, func() {
			for seed := int64(0); seed < 6; seed++ {
				pl := randomPlacement(t, 400+seed)
				a, err := NewAnalyzer(pl, Options{})
				if err != nil {
					t.Fatal(err)
				}
				n := len(pl.Design.Gates)
				rng := rand.New(rand.NewSource(seed))
				var tb *TimingBatch
				var lightBuf, laneBuf *Timing
				for _, w := range []int{1, 2, 3, 4, 5, 7, 8, 16, 17} {
					scale := make([]float64, n*w)
					for i := range scale {
						scale[i] = 0.8 + 0.5*rng.Float64()
					}
					if w > 1 {
						// Lane 1 at exactly nominal: the all-ones product
						// must still match the scalar path bit for bit.
						for g := 0; g < n; g++ {
							scale[n+g] = 1
						}
					}
					if w > 2 {
						// Lane 2 all zero delays of either sign: every
						// reduction compares +0 against -0.
						for g := 0; g < n; g++ {
							scale[2*n+g] = math.Copysign(0, float64(g%2)-0.5)
						}
					}
					tb, err = a.RunLightBatch(scale, w, tb)
					if err != nil {
						t.Fatal(err)
					}
					if tb.W != w || tb.NumGates() != n {
						t.Fatalf("seed %d w %d: batch shape (%d, %d)", seed, w, tb.W, tb.NumGates())
					}
					for d := 0; d < w; d++ {
						lightBuf, err = a.RunLight(scale[d*n:(d+1)*n], lightBuf)
						if err != nil {
							t.Fatal(err)
						}
						requireLaneBits(t, tb, d, lightBuf)
						// The gathered lane is the scalar light Timing.
						laneBuf = tb.DieInto(d, laneBuf)
						requireTimingEqual(t, lightBuf, laneBuf, "DieInto lane")
						if !laneBuf.Light || len(laneBuf.Paths) != 0 {
							t.Fatalf("DieInto lane is not a light, path-free timing")
						}
					}
				}
			}
		})
	}
}

// sameBits reports whether got is want to the bit, or both are NaN: a NaN's
// payload is not part of the contract.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// requireLaneBits fails unless lane d of tb carries ref's delays, arrivals,
// tails and critical delay bit for bit (any NaN for a NaN).
func requireLaneBits(tb testing.TB, b *TimingBatch, d int, ref *Timing) {
	tb.Helper()
	w := b.W
	if !sameBits(b.DcritPS[d], ref.DcritPS) {
		tb.Fatalf("avx2=%v w %d lane %d: Dcrit %v, want %v", lanesAVX2, w, d, b.DcritPS[d], ref.DcritPS)
	}
	for g := range ref.GateDelayPS {
		if !sameBits(b.GateDelayPS[g*w+d], ref.GateDelayPS[g]) ||
			!sameBits(b.ArrPS[g*w+d], ref.ArrPS[g]) ||
			!sameBits(b.TailPS[g*w+d], ref.TailPS[g]) {
			tb.Fatalf("avx2=%v w %d lane %d gate %d: (%v, %v, %v), want (%v, %v, %v)",
				lanesAVX2, w, d, g,
				b.GateDelayPS[g*w+d], b.ArrPS[g*w+d], b.TailPS[g*w+d],
				ref.GateDelayPS[g], ref.ArrPS[g], ref.TailPS[g])
		}
	}
}

// specialScales are the scale values whose float semantics a lane kernel is
// most likely to get wrong: NaN, infinities, signed zeros, subnormals and
// negatives.
var specialScales = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
	-1, -0.5, 1, math.MaxFloat64,
}

// FuzzRunLightBatch: on a random DAG, at widths 1 to 17, with scale vectors
// that mix ordinary factors and raw bit patterns with NaN, ±Inf, ±0 and
// subnormals, every lane of the batch must equal RunLight of that lane by
// bits (any NaN for a NaN), on the AVX2 kernel and on the Go loops.
func FuzzRunLightBatch(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(16), uint8(0))
	f.Add(int64(3), int64(4), uint8(5), uint8(40))
	f.Add(int64(5), int64(6), uint8(1), uint8(128))
	f.Add(int64(7), int64(8), uint8(17), uint8(255))
	f.Fuzz(func(t *testing.T, designSeed, scaleSeed int64, width, special uint8) {
		pl := randomPlacement(t, designSeed)
		a, err := NewAnalyzer(pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := len(pl.Design.Gates)
		w := 1 + int(width)%17
		rng := rand.New(rand.NewSource(scaleSeed))
		scale := make([]float64, n*w)
		for i := range scale {
			switch r := rng.Intn(256); {
			case r >= int(special):
				scale[i] = 0.5 + rng.Float64()
			case r%3 == 0:
				scale[i] = math.Float64frombits(rng.Uint64())
			default:
				scale[i] = specialScales[rng.Intn(len(specialScales))]
			}
		}
		var ref *Timing
		for _, avx2 := range lanePaths() {
			withLanes(avx2, func() {
				tb, err := a.RunLightBatch(scale, w, nil)
				if err != nil {
					t.Fatal(err)
				}
				for d := 0; d < w; d++ {
					if ref, err = a.RunLight(scale[d*n:(d+1)*n], ref); err != nil {
						t.Fatal(err)
					}
					requireLaneBits(t, tb, d, ref)
				}
			})
		}
	})
}

// TestRunLightBatchValidation: width and scale-length mismatches are
// structural errors, not silent truncations.
func TestRunLightBatchValidation(t *testing.T) {
	pl := randomPlacement(t, 401)
	a, err := NewAnalyzer(pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(pl.Design.Gates)
	if _, err := a.RunLightBatch(make([]float64, n), 0, nil); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := a.RunLightBatch(make([]float64, n*2-1), 2, nil); err == nil {
		t.Error("short scale accepted")
	}
}

// TestRunLightBatchAllocFree: a warmed batch re-time allocates nothing — the
// same steady-state contract as RunLight, extended to the SoA block.
func TestRunLightBatchAllocFree(t *testing.T) {
	pl := randomPlacement(t, 402)
	a, err := NewAnalyzer(pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(pl.Design.Gates)
	const w = 8
	scale := make([]float64, n*w)
	for i := range scale {
		scale[i] = 0.9 + 0.001*float64(i%200)
	}
	tb, err := a.RunLightBatch(scale, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tm *Timing
	tm = tb.DieInto(0, tm)
	allocs := testing.AllocsPerRun(50, func() {
		if tb, err = a.RunLightBatch(scale, w, tb); err != nil {
			t.Fatal(err)
		}
		tm = tb.DieInto(3, tm)
	})
	if allocs != 0 {
		t.Errorf("warmed RunLightBatch+DieInto allocates %v per run, want 0", allocs)
	}
}
