package core

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// Level-key tags. The reference construction (see Allocator) merges two
// constraints when their "%.6f" coefficient signatures print equal;
// Allocator.At keys each coefficient instead by the integer that signature
// prints, which partitions values exactly as the text does without the
// multi-precision decimal conversion strconv takes for a fixed 'f'
// precision.
const (
	keyMicros  = 'q' // 8-byte little-endian round-half-even(x * 10^6)
	keyNegZero = 'z' // a negative x that prints "-0.000000"
	keyText    = 't' // x off the integer window: its %.6f text, then ','
)

// appendLevelKey appends the merge key of one coefficient. Two floats get
// equal keys iff strconv.FormatFloat(x, 'f', 6, 64) prints them equal, and
// every key is self-delimiting (its tag fixes its length or the text ends
// at a ','), so a concatenation of keys is equal iff its signatures are.
func appendLevelKey(dst []byte, x float64) []byte {
	q, ok := micros(x)
	switch {
	case !ok:
		return append(strconv.AppendFloat(append(dst, keyText), x, 'f', 6, 64), ',')
	case q == 0 && math.Signbit(x):
		return append(dst, keyNegZero)
	}
	return binary.LittleEndian.AppendUint64(append(dst, keyMicros), uint64(q))
}

// micros returns round-half-even(x * 10^6), sign included — the integer
// FormatFloat(x, 'f', 6, 64) prints, which rounds the exact binary value
// half to even — for finite |x| < 2^43, where it fits an int64. ok is false
// for every other x.
func micros(x float64) (q int64, ok bool) {
	b := math.Float64bits(x)
	exp := int(b>>52) & 0x7ff
	if exp >= 1023+43 {
		return 0, false // |x| >= 2^43, Inf or NaN
	}
	// |x| = mant * 2^-s with s >= 1075-1065 = 10.
	mant := b & (1<<52 - 1)
	if exp == 0 {
		exp = 1 // subnormal
	} else {
		mant |= 1 << 52
	}
	s := uint(1075 - exp)
	if s >= 74 {
		// mant * 10^6 < 2^73 <= 2^(s-1): below one half.
		return 0, true
	}
	hi, lo := bits.Mul64(mant, 1e6)
	var u, remHi, remLo, halfHi, halfLo uint64
	if s < 64 {
		u = hi<<(64-s) | lo>>s
		remLo = lo & (1<<s - 1)
		halfLo = 1 << (s - 1)
	} else {
		u = hi >> (s - 64)
		remHi, remLo = hi&(1<<(s-64)-1), lo
		if s == 64 {
			halfLo = 1 << 63
		} else {
			halfHi = 1 << (s - 65)
		}
	}
	if remHi > halfHi || remHi == halfHi && (remLo > halfLo || remLo == halfLo && u&1 == 1) {
		u++
	}
	if b>>63 != 0 {
		return -int64(u), true
	}
	return int64(u), true
}
