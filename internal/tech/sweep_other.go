//go:build !amd64

package tech

// delayBlocks and subBlocks do no lanes off amd64; sweepMode is sweepOff
// there, so the sweeps never call them.
func delayBlocks(dst, dvth []float64, over0, am1, tdf float64, fma bool) int { return 0 }

func subBlocks(dst, dvth []float64, slope float64, fma bool) int { return 0 }
