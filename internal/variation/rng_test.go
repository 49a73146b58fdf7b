package variation

import (
	"math"
	"math/rand"
	"testing"
)

// seedEdges are the seeds where math/rand's seed reduction branches: zero
// (replaced by 89482311), the value it is replaced by, ±1, the modulus
// 2³¹−1 and its multiples (all reduce to zero), their neighbours, and the
// int64 extremes.
var seedEdges = []int64{
	0, 1, -1, 89482311,
	lehmerM, -lehmerM, 2 * lehmerM, -2 * lehmerM, lehmerM - 1, lehmerM + 1, -lehmerM + 1,
	lehmerM * lehmerM, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
}

// checkSeedStream compares the first n draws of a re-seeded laggedSource
// under rand.Rand against math/rand's own generator of the same seed: the
// mixed NormFloat64/Float64 sequence a die draws, then raw Uint64s.
func checkSeedStream(t *testing.T, rng *rand.Rand, src *laggedSource, seed int64, n int) {
	t.Helper()
	ref := rand.New(rand.NewSource(seed))
	rng.Seed(seed)
	for i := 0; i < n; i++ {
		var got, want float64
		if i%3 == 0 {
			got, want = rng.Float64(), ref.Float64()
		} else {
			got, want = rng.NormFloat64(), ref.NormFloat64()
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d draw %d: got %v, math/rand %v", seed, i, got, want)
		}
	}
	refSrc := rand.NewSource(seed).(rand.Source64)
	src.Seed(seed)
	for i := 0; i < 2*rngLen; i++ {
		if got, want := src.Uint64(), refSrc.Uint64(); got != want {
			t.Fatalf("seed %d Uint64 %d: got %#x, math/rand %#x", seed, i, got, want)
		}
	}
}

// TestSeedMatchesMathRand pins laggedSource to math/rand draw for draw: one
// source re-seeded across every edge seed, as a Sampler re-seeds per die.
func TestSeedMatchesMathRand(t *testing.T) {
	src := newLaggedSource(0)
	rng := rand.New(src)
	for _, seed := range seedEdges {
		checkSeedStream(t, rng, src, seed, 5000)
	}
	for i := 0; i < 64; i++ {
		checkSeedStream(t, rng, src, DieSeed(7, i), 200)
	}
}

func FuzzSeedMatchesMathRand(f *testing.F) {
	for _, seed := range seedEdges {
		f.Add(seed)
	}
	src := newLaggedSource(0)
	rng := rand.New(src)
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSeedStream(t, rng, src, seed, 300)
	})
}
