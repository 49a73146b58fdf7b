//go:build !amd64

package variation

// cosBlocksAVX2 does no gates off amd64; cosWave never calls it there.
func cosBlocksAVX2(dv, xs, ys []float64, kx, ky, phase, amp float64) int { return 0 }
