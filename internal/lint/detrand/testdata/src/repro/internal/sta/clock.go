// Corpus for the deterministic-kernel entropy rules. The import path of
// this testdata package is repro/internal/sta, so the pass treats it as
// kernel code.
package sta

import (
	"context"
	"math/rand"
	"time"
)

func wallClock() time.Time {
	return time.Now() // want `time\.Now in deterministic kernel package`
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since in deterministic kernel package`
}

func timedOut(ctx context.Context) context.Context {
	ctx, cancel := context.WithTimeout(ctx, time.Second) // want `context\.WithTimeout in deterministic kernel package`
	cancel()
	return ctx
}

func deadlined(ctx context.Context, at time.Time) context.Context {
	ctx, cancel := context.WithDeadline(ctx, at) // want `context\.WithDeadline in deterministic kernel package`
	cancel()
	return ctx
}

func timers(d time.Duration) {
	<-time.After(d)              // want `time\.After in deterministic kernel package`
	time.AfterFunc(d, func() {}) // want `time\.AfterFunc in deterministic kernel package`
	time.NewTimer(d).Stop()      // want `time\.NewTimer in deterministic kernel package`
	time.NewTicker(d).Stop()     // want `time\.NewTicker in deterministic kernel package`
	for range time.Tick(d) {     // want `time\.Tick in deterministic kernel package`
		break
	}
}

// A context without a clock is deterministic: only the clock-armed
// constructors are flagged.
func cancellable(ctx context.Context) context.Context {
	ctx, cancel := context.WithCancel(ctx)
	cancel()
	return ctx
}

func globalStream() int {
	return rand.Intn(10) // want `global math/rand stream \(rand\.Intn\)`
}

func shuffled(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global math/rand stream \(rand\.Shuffle\)`
}

func entropySeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `time\.Now in deterministic kernel package` `rand\.NewSource seed must be a constant, a threaded-in variable, or a visible derivation`
}

func opaqueSource(src rand.Source) *rand.Rand {
	return rand.New(src) // want `rand\.New must wrap an inline rand\.NewSource\(seed\)`
}

func laundered(x int64) *rand.Rand {
	return rand.New(rand.NewSource(mix(x))) // want `rand\.NewSource seed must be a constant, a threaded-in variable, or a visible derivation`
}

func mix(x int64) int64 { return x*6364136223846793005 + 1442695040888963407 }

func launderedLocal(x int64) *rand.Rand {
	return rand.New(newCountingSource(mix(x))) // want `rand\.NewSource seed must be a constant, a threaded-in variable, or a visible derivation`
}

func foreignConstructor() *rand.Rand {
	return rand.New(makeGenerator(0)) // want `rand\.New must wrap an inline rand\.NewSource\(seed\)`
}

// countingSource is a package-local generator; newCountingSource is its
// seeded constructor.
type countingSource struct{ n int64 }

func newCountingSource(seed int64) *countingSource { return &countingSource{n: seed} }

func makeGenerator(seed int64) *countingSource { return &countingSource{n: seed} }

func (s *countingSource) Int63() int64 { s.n++; return s.n & (1<<63 - 1) }
func (s *countingSource) Seed(n int64) { s.n = n }

// The sanctioned forms.

func constantSeed() *rand.Rand {
	return rand.New(rand.NewSource(0))
}

func threadedSeed(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func derivedSeed(seed int64, die int) *rand.Rand {
	return rand.New(rand.NewSource(dieSeed(seed, die)))
}

func splitmixed(z uint64) *rand.Rand {
	return rand.New(rand.NewSource(splitmix64(z)))
}

func localSource(seed int64) *rand.Rand {
	return rand.New(newCountingSource(seed))
}

func drawn(rng *rand.Rand) float64 {
	return rng.NormFloat64() // methods on a private generator are fine
}

func dieSeed(seed int64, die int) int64 {
	return splitmix64(uint64(seed) + uint64(die)*0x9e3779b97f4a7c15)
}

func splitmix64(z uint64) int64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

func suppressed() time.Time {
	//lint:allow detrand this corpus pins that a reasoned allow silences the clock rule
	return time.Now()
}

func reasonless() time.Time {
	//lint:allow detrand // want `lint:allow detrand needs a reason`
	return time.Now() // want `time\.Now in deterministic kernel package`
}
