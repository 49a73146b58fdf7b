//go:build amd64

package variation

// cosBlocksAVX2 is implemented in cos_amd64.s.
//
//go:noescape
func cosBlocksAVX2(dv, xs, ys []float64, kx, ky, phase, amp float64) int
