package variation

import (
	"errors"

	"repro/internal/place"
	"repro/internal/sta"
	"repro/internal/tech"
)

// Retimer re-times sampled dies of one placement through a shared
// sta.Analyzer with reusable scratch buffers: the delay-scale vector and a
// one-lane sta.TimingBatch are both recycled call to call, so a Monte-Carlo
// loop pays no per-die graph work and no allocations. The Analyzer may be
// shared freely (it is immutable); the Retimer itself holds the mutable
// buffers and must not be used from more than one goroutine at a time —
// create one per worker (flow.MapWith does exactly that).
//
// TimeLight and TimeWithBiasLight return the die's critical delay, the one
// figure the post-silicon loop reads, from a one-lane Analyzer.RunLightBatch:
// bit for bit the DcritPS of a full Analyzer.Run of the same delay scale,
// which is what a consumer of the path set or the per-gate vectors runs
// instead.
type Retimer struct {
	an    *sta.Analyzer
	tb    *sta.TimingBatch
	scale []float64
	shift []float64 // per-row body-effect shifts of biasScale
}

// NewRetimer wraps a (possibly shared) Analyzer with private scratch
// buffers.
func NewRetimer(an *sta.Analyzer) *Retimer {
	return &Retimer{an: an}
}

// Analyzer returns the shared STA engine.
func (rt *Retimer) Analyzer() *sta.Analyzer { return rt.an }

// Placement returns the placement being re-timed.
func (rt *Retimer) Placement() *place.Placement { return rt.an.Placement() }

// TimeLight returns the die's critical delay at its sampled variation
// corner.
func (rt *Retimer) TimeLight(die *Die) (float64, error) {
	return rt.dcrit(die.DelayScale)
}

// TimeWithBiasLight returns the die's critical delay with a row-level
// body-bias assignment applied on top of its variation.
func (rt *Retimer) TimeWithBiasLight(die *Die, proc *tech.Process, assign []int) (float64, error) {
	scale := rt.scaleBuf(len(die.DVthV))
	if err := rt.biasScale(scale, die, proc, assign); err != nil {
		return 0, err
	}
	return rt.dcrit(scale)
}

// dcrit re-times one die's delay scale into the Retimer's one-lane batch.
func (rt *Retimer) dcrit(scale []float64) (float64, error) {
	tb, err := rt.an.RunLightBatch(scale, 1, rt.tb)
	if err != nil {
		return 0, err
	}
	rt.tb = tb
	return tb.DcritPS[0], nil
}

// biasScale fills scale (one entry per gate) with the die's variation
// combined with a row-level body-bias assignment: grid level assign[r] on
// row r, one entry per row. The body-effect shift depends only on the
// row's bias, so it is computed once per row; each gate then adds its own
// variation exactly as tech.Process.DelayFactorBias does. Only the die's
// DVthV is read.
func (rt *Retimer) biasScale(scale []float64, die *Die, proc *tech.Process, assign []int) error {
	pl := rt.an.Placement()
	if len(assign) != pl.NumRows {
		return errors.New("variation: assignment length mismatch")
	}
	if cap(rt.shift) < pl.NumRows {
		rt.shift = make([]float64, pl.NumRows)
	}
	shift := rt.shift[:pl.NumRows]
	grid := pl.Lib.Grid
	for r, level := range assign {
		shift[r] = proc.VthShift(grid.Voltage(level))
	}
	for g := range scale {
		scale[g] = shift[pl.RowOf[g]] + die.DVthV[g]
	}
	proc.DelayFactorsDVth(scale, scale)
	return nil
}

func (rt *Retimer) scaleBuf(n int) []float64 {
	if cap(rt.scale) < n {
		rt.scale = make([]float64, n)
	}
	return rt.scale[:n]
}

// DieSeed derives the sampling seed of die number `die` in a study seeded
// with `seed`. The splitmix64 finalizer both decorrelates the per-die rand
// streams (a linear seed stride hands near-identical generator states to
// adjacent dies) and ties each die to its index alone, so a study's
// population is byte-identical at any worker count or scheduling order.
func DieSeed(seed int64, die int) int64 {
	return splitmix64(uint64(seed) + uint64(die)*0x9e3779b97f4a7c15)
}

// splitmix64 is the splitmix64 finalizer, the mixing core of DieSeed.
func splitmix64(z uint64) int64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
