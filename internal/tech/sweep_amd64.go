//go:build amd64

package tech

// delayBlocks and subBlocks are implemented in sweep_amd64.s.

//go:noescape
func delayBlocks(dst, dvth []float64, over0, am1, tdf float64, fma bool) int

//go:noescape
func subBlocks(dst, dvth []float64, slope float64, fma bool) int
