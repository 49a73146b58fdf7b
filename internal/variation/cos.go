package variation

import (
	"math"

	"repro/internal/cpufeat"
)

// cosAVX2 selects the AVX2 sweep in cosWave. It is fixed at init from the
// host's CPU features and is false on every non-amd64 build; tests clear it
// to force the portable loop.
var cosAVX2 = cpufeat.AVX2()

// cosWave adds one systematic wave to a die row:
//
//	dv[g] += amp * math.Cos(kx*xs[g] + ky*ys[g] + phase)
//
// for every gate g < len(xs). On AVX2 hosts four gates go per step through
// cosBlocksAVX2, which is bit-identical to this loop lane for lane; a block
// it cannot do exactly (a lane with |arg| >= 2^29, NaN or Inf) and the tail
// of fewer than four gates run the loop below.
func cosWave(dv, xs, ys []float64, kx, ky, phase, amp float64) {
	n := len(xs)
	dv, ys = dv[:n], ys[:n]
	for g := 0; g < n; {
		end := n
		if cosAVX2 {
			g += cosBlocksAVX2(dv[g:], xs[g:], ys[g:], kx, ky, phase, amp)
			end = min(g+4, n)
		}
		for ; g < end; g++ {
			dv[g] += amp * math.Cos(kx*xs[g]+ky*ys[g]+phase)
		}
	}
}
