package sta

import (
	"fmt"

	"repro/internal/cpufeat"
)

// TimingBatch is the Dcrit-only re-timing of a batch of dies through one
// Analyzer: W lanes of GateDelayPS/ArrPS/TailPS stored lane-contiguous
// ([g*W+d] for gate g, die d) and one DcritPS per die. No paths are ever
// extracted; a consumer that needs them runs Analyzer.Run on the die's delay
// scale. RunLightBatch reuses the slices call to call, so a batch must not be
// shared between concurrent calls, and the previous batch held in the same
// buffer is invalidated.
type TimingBatch struct {
	// W is the number of die lanes of the current batch.
	W int
	// GateDelayPS/ArrPS/TailPS are the per-gate vectors of every lane,
	// indexed [g*W+d]; bit-identical to what Run computes for die d alone.
	GateDelayPS []float64
	ArrPS       []float64
	TailPS      []float64
	// DcritPS is the critical path delay of every die.
	DcritPS []float64

	// acc is the per-gate lane accumulator of the forward/backward sweeps.
	acc []float64
}

// lanesAVX2 selects the assembly lane passes of RunLightBatch. It is fixed
// at init from the host's CPU features and is false on every non-amd64
// build; tests clear it to force the portable loops.
var lanesAVX2 = cpufeat.AVX2()

// RunLightBatch re-times w dies at once, each with its own per-gate delay
// scale, into buf (nil allocates a fresh TimingBatch). scale is die-major:
// die d's scale vector is scale[d*n : (d+1)*n] for n = NumGates — the layout
// a die-major SoA sampler produces — and is transposed gate by gate into the
// batch's lane-contiguous arrays, so every write is contiguous.
//
// Per die, the float operations are exactly Run's: the forward and backward
// sweeps visit gates in the same topological order and reduce each gate's
// fanin/fanout in the same pin order, and DcritPS accumulates over gates in
// index order, so lane d of the batch is bit-identical to the GateDelayPS,
// ArrPS, TailPS and DcritPS of Run(scale[d*n:(d+1)*n], ...). The backward
// pass is kept although no path is extracted: the float association of
// ArrPS[g]+TailPS[g] along a path depends on where the two sums meet, so a
// forward-only endpoint reduction could drift from Run's DcritPS by an ulp.
//
// What a batch buys is structure amortization: the per-gate topo lookups,
// CSR slice bounds and setup-vs-combinational branches are paid once per
// gate per block of lanes instead of once per gate per die. On AVX2 hosts
// each block of four lanes runs the three passes in lanes_amd64.s, one ymm
// register per gate (the forward pass also transposes the block's delays),
// whose VMAXPD reduction is exactly the scalar `if v > acc { acc = v }` (NaN
// and signed zeros included); the w%4 leftover lanes, and every lane
// elsewhere, run the Go loops of goLanes. A single die (w == 1, the
// per-die re-time of the tuning tail) runs oneLane's scalar
// loops instead, which at one lane are several times faster than the lane
// loops.
func (a *Analyzer) RunLightBatch(scale []float64, w int, buf *TimingBatch) (*TimingBatch, error) {
	n := len(a.nomDelayPS)
	if w <= 0 {
		return nil, fmt.Errorf("sta: batch width %d, want >= 1", w)
	}
	if len(scale) != n*w {
		return nil, fmt.Errorf("sta: batch DelayScale length %d, want %d (%d dies x %d gates)", len(scale), n*w, w, n)
	}
	tb := buf
	if tb == nil {
		tb = &TimingBatch{}
	}
	tb.W = w
	tb.GateDelayPS = growFloat(tb.GateDelayPS, n*w)
	tb.ArrPS = growFloat(tb.ArrPS, n*w)
	tb.TailPS = growFloat(tb.TailPS, n*w)
	tb.DcritPS = growFloat(tb.DcritPS, w)
	tb.acc = growFloat(tb.acc, w)

	if w == 1 {
		a.oneLane(tb, scale)
		return tb, nil
	}
	lo := 0
	if lanesAVX2 {
		gd, arr, tail, dc := tb.GateDelayPS, tb.ArrPS, tb.TailPS, tb.DcritPS
		for ; lo+4 <= w; lo += 4 {
			forwardAVX2(arr[lo:], gd[lo:], scale[lo*n:], a.nomDelayPS, a.topo, a.predStart, a.preds, n, w)
			backwardAVX2(tail[lo:], gd[lo:], a.topo, a.succStart, a.succs, a.succSetupPS, w)
			dcritAVX2(dc[lo:], arr[lo:], tail[lo:], n, w)
		}
	}
	if lo < w {
		a.goLanes(tb, scale, lo)
	}
	return tb, nil
}

// goLanes runs RunLightBatch's passes over lanes [lo, W) of tb.
func (a *Analyzer) goLanes(tb *TimingBatch, scale []float64, lo int) {
	n, w := len(a.nomDelayPS), tb.W
	gd, arr, tail := tb.GateDelayPS, tb.ArrPS, tb.TailPS
	acc := tb.acc[lo:w]

	// Transpose the die-major scale into lane-contiguous scaled delays,
	// gate by gate so that every write is contiguous:
	// gd[g*W+d] = nom[g] * scale[d*n+g].
	for g, nom := range a.nomDelayPS {
		out := gd[g*w+lo : g*w+w]
		for d := range out {
			out[d] = nom * scale[(lo+d)*n+g]
		}
	}

	// Forward pass: per-lane arrival maxima in pin order, then one add of
	// the gate delay — the same float ops per lane as Run.
	for _, g := range a.topo {
		for d := range acc {
			acc[d] = 0
		}
		for _, p := range a.preds[a.predStart[g]:a.predStart[g+1]] {
			lane := arr[int(p)*w+lo : int(p)*w+w]
			for d, v := range lane {
				if v > acc[d] {
					acc[d] = v
				}
			}
		}
		out := arr[int(g)*w+lo : int(g)*w+w]
		del := gd[int(g)*w+lo : int(g)*w+w]
		for d := range out {
			out[d] = acc[d] + del[d]
		}
	}

	// Backward pass: per-lane tail maxima in fanout order. A flip-flop
	// consumer contributes its (lane-invariant) setup time, compared in
	// the same position of each lane's reduction as in Run.
	for i := len(a.topo) - 1; i >= 0; i-- {
		g := a.topo[i]
		for d := range acc {
			acc[d] = 0
		}
		for k := a.succStart[g]; k < a.succStart[g+1]; k++ {
			if setup := a.succSetupPS[k]; setup >= 0 {
				for d := range acc {
					if setup > acc[d] {
						acc[d] = setup
					}
				}
				continue
			}
			f := int(a.succs[k])
			fd := gd[f*w+lo : f*w+w]
			ft := tail[f*w+lo : f*w+w]
			for d := range acc {
				if cand := fd[d] + ft[d]; cand > acc[d] {
					acc[d] = cand
				}
			}
		}
		copy(tail[int(g)*w+lo:int(g)*w+w], acc)
	}

	// Critical delays, accumulated over gates in index order exactly like
	// the shared dcrit reduction.
	dc := tb.DcritPS[lo:w]
	for d := range dc {
		dc[d] = 0
	}
	for g := 0; g < n; g++ {
		ga := arr[g*w+lo : g*w+w]
		gt := tail[g*w+lo : g*w+w]
		for d := range dc {
			if t := ga[d] + gt[d]; t > dc[d] {
				dc[d] = t
			}
		}
	}
}

// oneLane is RunLightBatch at w == 1, where the lane layout is the scalar
// one: Run's forward and backward passes without the best-predecessor and
// best-successor bookkeeping, and the shared dcrit reduction.
func (a *Analyzer) oneLane(tb *TimingBatch, scale []float64) {
	gd, arr, tail := tb.GateDelayPS, tb.ArrPS, tb.TailPS
	a.scaleDelays(gd, scale)

	for _, g := range a.topo {
		acc := 0.0
		for _, p := range a.preds[a.predStart[g]:a.predStart[g+1]] {
			if v := arr[p]; v > acc {
				acc = v
			}
		}
		arr[g] = acc + gd[g]
	}

	for i := len(a.topo) - 1; i >= 0; i-- {
		g := a.topo[i]
		acc := 0.0
		for k := a.succStart[g]; k < a.succStart[g+1]; k++ {
			cand := a.succSetupPS[k]
			if cand < 0 {
				f := a.succs[k]
				cand = gd[f] + tail[f]
			}
			if cand > acc {
				acc = cand
			}
		}
		tail[g] = acc
	}

	tb.DcritPS[0] = dcrit(arr, tail)
}
