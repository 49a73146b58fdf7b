package lp

import "repro/internal/cpufeat"

// axpyAVX2 selects the assembly kernel in axpy. It is fixed at init from
// CPUID; tests clear it to force the portable loop.
var axpyAVX2 = cpufeat.AVX2()

// axpy sets y[j] -= f*x[j] for every j < len(y), the row update of a pivot;
// len(x) must be at least len(y). The AVX2 kernel multiplies and subtracts
// in two roundings, as the compiler does for the portable loop on amd64, so
// both paths give the same bits.
func axpy(y, x []float64, f float64) {
	if axpyAVX2 {
		axpyAsm(y, x, f)
		return
	}
	axpyGo(y, x, f)
}

// axpyGo is axpy's portable loop. Where the compiler fuses y - f*x into one
// multiply-add (arm64, ppc64, s390x, riscv64), it fuses it exactly as it
// fused the index loop this kernel replaced.
func axpyGo(y, x []float64, f float64) {
	x = x[:len(y)]
	for j := range y {
		y[j] -= f * x[j]
	}
}
