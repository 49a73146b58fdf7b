package variation

import "math/rand"

// laggedSource is math/rand's own generator — the additive lagged-Fibonacci
// source behind rand.NewSource — with a faster Seed. Its state after Seed,
// and so every value it yields, equals that of rand.NewSource(seed); only
// the seeding arithmetic differs. math/rand seeds the 607-word register from
// 1,841 consecutive steps x ← 48271·x mod (2³¹−1) of a Lehmer generator,
// each one a Schrage division, in one serial chain. Each register word takes
// three consecutive steps, so Seed runs three interleaved chains instead,
// each jumping three steps at a time by 48271³ mod (2³¹−1), and reduces
// every product with a Mersenne fold: the same residues, computed about four
// times faster. Re-seeding per die is what a population study does, so the
// seed is a measurable share of a die's sampling cost.
//
// rand.New wraps it, so Float64 and NormFloat64 remain math/rand's code.
type laggedSource struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap
	rngMask = 1<<63 - 1

	// lehmerM and lehmerA are the seeding generator's modulus 2³¹−1 and
	// multiplier; lehmerA3 jumps a chain three steps at once.
	lehmerM  = 1<<31 - 1
	lehmerA  = 48271
	lehmerA3 = lehmerA * lehmerA % lehmerM * lehmerA % lehmerM
)

// rngCooked is math/rand's seeding table, the 607 words XORed into the
// register after the Lehmer steps. It is recovered once from math/rand
// itself rather than copied, so math/rand stays its only source.
var rngCooked = cookedWords()

// cookedWords reads the register of a seeded math/rand source off its first
// 607 outputs and XORs out the Lehmer words of that seed. Over the first
// 607 steps every output is one register word plus one word or earlier
// output, so the additions can be undone in closed form: step k updates
// word feed = 334−k (mod 607) with word tap = 607−k, and a tap word that
// an earlier step k−273 already updated holds that step's output.
func cookedWords() [rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out [rngLen + 1]int64 // out[k] is the k-th output, k = 1..607
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(src.Uint64())
	}
	var vec [rngLen]int64
	for k := rngTap + 1; k <= rngFeed; k++ {
		vec[rngFeed-k] = out[k] - out[k-rngTap]
	}
	for k := rngFeed + 1; k <= rngLen; k++ {
		vec[rngLen+rngFeed-k] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		vec[rngFeed-k] = out[k] - vec[rngLen-k]
	}
	var lehmer laggedSource
	lehmer.seedWords(seed, &[rngLen]int64{})
	for i := range vec {
		vec[i] ^= lehmer.vec[i]
	}
	return vec
}

// newLaggedSource returns a source seeded like rand.NewSource(seed).
func newLaggedSource(seed int64) *laggedSource {
	s := &laggedSource{}
	s.Seed(seed)
	return s
}

// Seed resets the source to the state of rand.NewSource(seed).
func (s *laggedSource) Seed(seed int64) { s.seedWords(seed, &rngCooked) }

// seedWords is Seed with an explicit table: word i of the register is the
// Lehmer steps 21+3i, 22+3i and 23+3i packed as math/rand packs them, XORed
// with cooked[i].
func (s *laggedSource) seedWords(seed int64, cooked *[rngLen]int64) {
	s.tap = 0
	s.feed = rngFeed
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := 0; i < 21; i++ {
		x = mulModM(x, lehmerA)
	}
	a := x
	b := mulModM(a, lehmerA)
	c := mulModM(b, lehmerA)
	for i := range s.vec {
		s.vec[i] = (int64(a)<<40 ^ int64(b)<<20 ^ int64(c)) ^ cooked[i]
		a = mulModM(a, lehmerA3)
		b = mulModM(b, lehmerA3)
		c = mulModM(c, lehmerA3)
	}
}

// mulModM returns x·k mod 2³¹−1 for x, k in [1, 2³¹−1): the 62-bit product
// folded twice at bit 31 (2³¹ ≡ 1). The first fold leaves r ≤ 2·(2³¹−1);
// the second maps r ≥ 2³¹ to r − (2³¹−1) without a branch and leaves every
// smaller r as it is. Neither factor is a multiple of the prime modulus, so
// the residue is never 0 and never the modulus itself.
func mulModM(x, k uint64) uint64 {
	p := x * k
	r := p&lehmerM + p>>31
	return r&lehmerM + r>>31
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *laggedSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit integer, math/rand's step exactly.
func (s *laggedSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
