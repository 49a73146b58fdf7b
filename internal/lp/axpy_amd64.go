//go:build amd64

package lp

// axpyAsm is implemented in axpy_amd64.s.
//
//go:noescape
func axpyAsm(y, x []float64, f float64)
