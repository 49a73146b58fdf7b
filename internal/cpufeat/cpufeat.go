// Package cpufeat reports the x86 vector features the exact AVX2 kernels
// may use: variation's cosine sweep, tech's Exp/Log sweeps, lp's pivot row
// update (axpy) and sta's batched re-timing lanes. Both flags are fixed at
// init from CPUID and XGETBV and are false on every non-amd64 build, so a
// kernel that checks them never executes an instruction the host lacks.
package cpufeat

var avx2, fma = probe()

// AVX2 reports whether the CPU implements AVX2 and the operating system
// saves the YMM register state across context switches.
func AVX2() bool { return avx2 }

// FMA reports whether AVX2 holds and the CPU also implements the FMA3
// fused multiply-add instructions.
func FMA() bool { return fma }
