package variation

import (
	"errors"

	"repro/internal/place"
	"repro/internal/sta"
	"repro/internal/tech"
)

// Retimer re-times sampled dies of one placement through a shared
// sta.Analyzer with reusable scratch buffers: the delay-scale vector and the
// sta.Timing result are both recycled call to call, so a Monte-Carlo loop
// pays no per-die graph work and near-zero allocations. The Analyzer may be
// shared freely (it is immutable); the Retimer itself holds the mutable
// buffers and must not be used from more than one goroutine at a time —
// create one per worker (flow.MapWith does exactly that).
//
// Every Time*Light method returns the Retimer's single internal buffer: the
// result is only valid until the next call on the same Retimer, so callers
// must copy out any scalars (DcritPS, sensed betas) they need across calls.
//
// All three re-times run the Analyzer's Dcrit-only fast path: the result
// carries bit-identical GateDelayPS/ArrPS/TailPS/DcritPS but no extracted
// Paths. Population loops only read a die's critical delay; a consumer
// that needs the path set runs sta.Analyzer.Run on the same delay scale.
type Retimer struct {
	an    *sta.Analyzer
	buf   *sta.Timing
	scale []float64
	shift []float64 // per-row body-effect shifts of biasScale
}

// NewRetimer wraps a (possibly shared) Analyzer with private scratch
// buffers.
func NewRetimer(an *sta.Analyzer) *Retimer {
	return &Retimer{an: an, buf: &sta.Timing{}}
}

// Analyzer returns the shared STA engine.
func (rt *Retimer) Analyzer() *sta.Analyzer { return rt.an }

// Placement returns the placement being re-timed.
func (rt *Retimer) Placement() *place.Placement { return rt.an.Placement() }

// TimeLight re-times the die at its sampled variation corner.
func (rt *Retimer) TimeLight(die *Die) (*sta.Timing, error) {
	return rt.an.RunLight(die.DelayScale, rt.buf)
}

// TimeWithBiasLight re-times the die with a row-level body-bias assignment
// applied on top of its variation.
func (rt *Retimer) TimeWithBiasLight(die *Die, proc *tech.Process, assign []int) (*sta.Timing, error) {
	scale := rt.scaleBuf(len(die.DVthV))
	if err := rt.biasScale(scale, die, proc, assign, 0); err != nil {
		return nil, err
	}
	return rt.an.RunLight(scale, rt.buf)
}

// TimeUniformBiasLight re-times the die with one body-bias voltage applied
// to every gate (the block-level granularity RBB recovery scans).
func (rt *Retimer) TimeUniformBiasLight(die *Die, proc *tech.Process, vbs float64) (*sta.Timing, error) {
	scale := rt.scaleBuf(len(die.DVthV))
	if err := rt.biasScale(scale, die, proc, nil, vbs); err != nil {
		return nil, err
	}
	return rt.an.RunLight(scale, rt.buf)
}

// biasScale fills scale (one entry per gate) with the die's variation
// combined with a body bias that is uniform within each row: grid level
// assign[r] on row r, or vbs on every row when assign is nil. The
// body-effect shift depends only on the row's bias, so it is computed once
// per row; each gate then adds its own variation exactly as
// tech.Process.DelayFactorBias does. Only the die's DVthV is read.
func (rt *Retimer) biasScale(scale []float64, die *Die, proc *tech.Process, assign []int, vbs float64) error {
	pl := rt.an.Placement()
	if assign != nil && len(assign) != pl.NumRows {
		return errors.New("variation: assignment length mismatch")
	}
	if cap(rt.shift) < pl.NumRows {
		rt.shift = make([]float64, pl.NumRows)
	}
	shift := rt.shift[:pl.NumRows]
	if assign == nil {
		uniform := proc.VthShift(vbs)
		for r := range shift {
			shift[r] = uniform
		}
	} else {
		grid := pl.Lib.Grid
		for r, level := range assign {
			shift[r] = proc.VthShift(grid.Voltage(level))
		}
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

// splitmix64 is the splitmix64 finalizer, the mixing core of DieSeed and
// the sensor noise streams.
func splitmix64(z uint64) int64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
