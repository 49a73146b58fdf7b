package tech

import (
	"math"

	"repro/internal/cpufeat"
)

// The vector kernels behind DelayFactorsDVth and SubFactorsDVth replay
// math.archLog and one of math.archExp's two amd64 sequences, four lanes at
// a time. sweepMode names the Exp sequence they replay, or sweepOff for the
// portable scalar loops (every non-amd64 build, hosts without AVX2, and
// tests that force the scalar path).
const (
	sweepOff   = iota
	sweepPlain // archExp's separate multiply-add sequence
	sweepFMA   // archExp's fused multiply-add sequence
)

var sweepMode = probeSweep()

// probeSweep picks the kernel variant by probing, not by CPUID: math.Exp
// runs its FMA sequence only when the Go runtime enabled FMA (GODEBUG
// cpu.fma=off turns it off on an FMA host), so the variant is the one that
// reproduces this process's math.Exp and math.Log on inputs where the two
// sequences round differently. If neither does — a toolchain whose math
// routines changed — the vector path stays off, which costs speed but
// never bits. CPUID only rules out the variants the CPU cannot execute.
func probeSweep() int {
	if !cpufeat.AVX2() {
		return sweepOff
	}
	if cpufeat.FMA() && sweepMatches(true) {
		return sweepFMA
	}
	if sweepMatches(false) {
		return sweepPlain
	}
	return sweepOff
}

// expProbes are Exp arguments whose FMA and non-FMA archExp results differ
// in the last bit (the first four), plus plain points across the window.
var expProbes = [8]float64{
	-45.58879387709587, -23.890576729765552, 54.59345285001381, -0.25582639887576253,
	0, 1, -7.5, 511.5,
}

// logProbes are threshold shifts that, at over0 = 1, put r = 1/(1-dvth)
// next to archLog's Sqrt2/2 branch point and from 1e-150 to 20, where a
// one-ulp Log difference survives the Exp.
var logProbes = [8]float64{
	1 - math.Sqrt2/2, -(math.Sqrt2 - 1), 0.9, 0.95,
	-1e6, -1e150, -3, 0.5,
}

// sweepMatches reports whether the fma variant of both kernels is
// bit-identical to the scalar math calls on the probes.
func sweepMatches(fma bool) bool {
	var got [8]float64
	// Exp(-x / -1) is Exp(x).
	if subBlocks(got[:], expProbes[:], -1, fma) != len(got) {
		return false
	}
	for i, x := range expProbes {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	const am1, tdf = 0.5, 1.25
	if delayBlocks(got[:], logProbes[:], 1, am1, tdf, fma) != len(got) {
		return false
	}
	for i, d := range logProbes {
		over := max(1-d, 0.05)
		r := 1 / over
		want := math.Exp(am1*math.Log(r)) * r * tdf
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			return false
		}
	}
	return true
}

// DelayFactorsDVth sets dst[i] = p.DelayFactorDVth(dvth[i]) for every
// i < len(dvth), bit for bit. dst must be at least as long as dvth and may
// be dvth itself (an in-place sweep). On AVX2 hosts four lanes go per step
// through delayBlocks; a block holding a lane off its exact window (a NaN
// or clamp-defeating shift, r outside [2^-600, 2^600]) and the tail of
// fewer than four lanes run the scalar call, as does every lane when Alpha
// lies outside [1, 1.5] (alphaPow's math.Pow path).
func (p *Process) DelayFactorsDVth(dst, dvth []float64) {
	n := len(dvth)
	dst = dst[:n]
	over0, am1, tdf := p.overdrive0(), p.Alpha-1, p.tempDelayFactor()
	vec := sweepMode != sweepOff && p.Alpha >= 1 && p.Alpha <= 1.5
	for i := 0; i < n; {
		end := n
		if vec {
			i += delayBlocks(dst[i:], dvth[i:], over0, am1, tdf, sweepMode == sweepFMA)
			end = min(i+4, n)
		}
		for ; i < end; i++ {
			dst[i] = p.DelayFactorDVth(dvth[i])
		}
	}
}

// SubFactorsDVth sets dst[i] = p.SubFactorDVth(dvth[i]) for every
// i < len(dvth), bit for bit. dst must be at least as long as dvth and may
// be dvth itself. On AVX2 hosts four lanes go per step through subBlocks;
// a block holding a lane whose Exp argument is NaN or beyond ±512 and the
// tail of fewer than four lanes run the scalar call.
func (p *Process) SubFactorsDVth(dst, dvth []float64) {
	n := len(dvth)
	dst = dst[:n]
	slope := p.subSlope()
	for i := 0; i < n; {
		end := n
		if sweepMode != sweepOff {
			i += subBlocks(dst[i:], dvth[i:], slope, sweepMode == sweepFMA)
			end = min(i+4, n)
		}
		for ; i < end; i++ {
			dst[i] = p.SubFactorDVth(dvth[i])
		}
	}
}
