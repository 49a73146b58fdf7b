package variation

import (
	"math"
	"math/rand"

	"repro/internal/place"
	"repro/internal/tech"
)

// Sampler draws dies of one placement into reused buffers. Everything a
// seed cannot change is hoisted out of the per-die loop: the gate-centre
// coordinates come from the placement's cached structure-of-arrays form
// (computed once per placement, shared by every Sampler over it), and the
// generator state is re-seeded in place instead of reallocated, so a
// warmed-up SampleInto allocates nothing. The generator is math/rand's
// Rand over laggedSource, math/rand's own lagged-Fibonacci source with a
// faster Seed: every draw is the one rand.New(rand.NewSource(seed)) would
// make, and the per-die re-seed costs about a quarter of math/rand's. The
// systematic-surface loop is
// restructured wave-major — each cosine wave sweeps all gates in one
// branch-free pass — which is bit-identical to the gate-major accumulation
// of Model.Sample (same additions in the same order per gate) but keeps the
// wave constants in registers.
//
// A Sampler's geometry is immutable but its generator is not: one Sampler
// must not be used from more than one goroutine at a time. Concurrent
// population loops create one per worker with cloneInto, which shares the
// placement geometry and gives the worker a private generator (YieldStream
// does exactly that via its worker pool).
type Sampler struct {
	m    Model
	pl   *place.Placement
	proc *tech.Process
	// xs, ys are the placement's cached gate centres (SoA); shared across
	// clones and never written.
	xs, ys []float64
	rng    *rand.Rand
}

// NewSampler builds a Sampler for the placement/process pair. The gate
// coordinates are the placement's cached SoA centres, so constructing more
// Samplers over one placement costs O(1) geometry work after the first.
func NewSampler(pl *place.Placement, proc *tech.Process, m Model) *Sampler {
	xs, ys := pl.Centers()
	return &Sampler{m: m, pl: pl, proc: proc, xs: xs, ys: ys, rng: rand.New(newLaggedSource(0))}
}

// cloneInto makes dst a Sampler sharing s's immutable geometry with a
// private generator, the per-worker form of a shared Sampler: dst's own
// generator is kept (a nil dst allocates a new Sampler and generator), so a
// pooled worker re-targets its Sampler without allocating. The generator
// holds no state across dies — every die re-seeds it.
func (s *Sampler) cloneInto(dst *Sampler) *Sampler {
	if dst == nil {
		dst = &Sampler{}
	}
	rng := dst.rng
	*dst = *s
	if rng == nil {
		rng = rand.New(newLaggedSource(0))
	}
	dst.rng = rng
	return dst
}

// grow sizes the die's per-gate slices for n gates, reusing capacity.
func (d *Die) grow(n int) {
	if cap(d.DVthV) < n {
		d.DVthV = make([]float64, n)
	}
	d.DVthV = d.DVthV[:n]
	if cap(d.DelayScale) < n {
		d.DelayScale = make([]float64, n)
	}
	d.DelayScale = d.DelayScale[:n]
}

// SampleInto draws the die of the given seed into die's reused buffers (nil
// allocates a fresh Die) and returns it. The sampled population is
// bit-identical to Model.Sample's: the generator is re-seeded exactly as a
// fresh rand.New(rand.NewSource(seed)) and every draw happens in the same
// order.
func (s *Sampler) SampleInto(die *Die, seed int64) *Die {
	if die == nil {
		die = &Die{}
	}
	n := len(s.pl.Design.Gates)
	die.Seed = seed
	die.grow(n)
	s.sampleRow(die.DVthV, die.DelayScale, seed)
	return die
}

// sampleRow draws one die's threshold shifts and delay scales into the given
// rows — the shared body of SampleInto and SampleBlockInto, so the scalar
// and block samplers cannot diverge. Both rows must have length NumGates.
func (s *Sampler) sampleRow(dv, dscale []float64, seed int64) {
	s.rng.Seed(seed)
	d2d := s.rng.NormFloat64() * s.m.SigmaD2DmV / 1000

	// Accumulate the systematic surface wave by wave directly into the
	// DVthV row: each wave is one cosWave sweep over all gates (four lanes
	// at a time on AVX2 hosts), and no scratch beyond the caller's rows is
	// needed.
	clear(dv)
	if s.m.SigmaSysmV > 0 && s.m.CorrLenUM > 0 {
		const waves = 6
		amp := s.m.SigmaSysmV / 1000 * math.Sqrt(2/float64(waves))
		for i := 0; i < waves; i++ {
			theta := s.rng.Float64() * 2 * math.Pi
			lambda := s.m.CorrLenUM * (0.7 + 0.6*s.rng.Float64())
			kx := 2 * math.Pi / lambda * math.Cos(theta)
			ky := 2 * math.Pi / lambda * math.Sin(theta)
			phase := s.rng.Float64() * 2 * math.Pi
			cosWave(dv, s.xs, s.ys, kx, ky, phase, amp)
		}
	}

	for g := range dv {
		dv[g] = d2d + dv[g] + s.rng.NormFloat64()*s.m.SigmaRndmV/1000
	}
	s.proc.DelayFactorsDVth(dscale, dv)
}

// AgedInto ages d into out's reused buffers (nil allocates a fresh Die; out
// == d ages in place), re-seeding the Sampler's generator from the die seed
// alone, so a die ages identically whichever Sampler or buffer runs it, at
// zero allocations.
func (s *Sampler) AgedInto(out, d *Die, years, activity float64) *Die {
	if years <= 0 {
		return d.copyInto(out)
	}
	s.rng.Seed(agingSeed(d.Seed))
	return agedInto(out, d, s.rng, s.proc, years, activity)
}

// copyInto copies d into out's buffers (nil allocates).
func (d *Die) copyInto(out *Die) *Die {
	if out == nil {
		out = &Die{}
	}
	if out == d {
		return out
	}
	out.Seed = d.Seed
	out.grow(len(d.DVthV))
	copy(out.DVthV, d.DVthV)
	copy(out.DelayScale, d.DelayScale)
	return out
}

// agingSeed derives the deterministic aging-spread stream of a die.
func agingSeed(dieSeed int64) int64 { return dieSeed ^ 0x5eed }

// agedInto applies the NBTI drift with per-gate spread drawn from rng.
func agedInto(out, d *Die, rng *rand.Rand, proc *tech.Process, years, activity float64) *Die {
	if out == nil {
		out = &Die{}
	}
	drift := AgingDVthV(years, activity)
	out.Seed = d.Seed
	out.grow(len(d.DVthV))
	for g := range d.DVthV {
		out.DVthV[g] = d.DVthV[g] + drift*(1+0.2*rng.NormFloat64())
	}
	proc.DelayFactorsDVth(out.DelayScale, out.DVthV)
	return out
}
