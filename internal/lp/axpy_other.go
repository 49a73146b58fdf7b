//go:build !amd64

package lp

// axpyAsm is the portable loop off amd64; axpyAVX2 is false there, so axpy
// never calls it.
func axpyAsm(y, x []float64, f float64) { axpyGo(y, x, f) }
