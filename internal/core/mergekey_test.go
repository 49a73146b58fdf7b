package core

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// mergeKeyValues returns the values the merge-key tests partition: exact
// half-millionth ties (odd multiples of 2^-7) and their neighbours,
// rounded k*1e-6 and the floats half an ulp-step around them, ±0, small
// negatives that print "-0.000000", subnormals, both sides of the 2^43
// window edge, NaN, ±Inf, and random bit patterns and magnitudes.
func mergeKeyValues() []float64 {
	var xs []float64
	add := func(x float64) {
		xs = append(xs, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
		xs = append(xs, -xs[len(xs)-3], -xs[len(xs)-2], -xs[len(xs)-1])
	}
	for j := 1; j < 4000; j += 2 {
		add(float64(j) / 128)
		add(float64(j) * 0x1p-20)
	}
	for k := 0; k < 3000; k++ {
		add(float64(k) * 1e-6)
		add(float64(k)*1e-6 + 5e-7)
		add(float64(k)*1e-3 + 5e-7)
	}
	for _, x := range []float64{0, 1e-7, 4.9e-7, 5e-7, 5.000000000000001e-7, 1e-300,
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1030, 0x1p-1074 * 12345,
		0x1p43, 0x1p43 - 0.5, 0x1p43 - 1e-6, 0x1p42 + 0.5, 1e15, 1e300, math.MaxFloat64} {
		add(x)
	}
	xs = append(xs, math.NaN(), math.Inf(1), math.Inf(-1))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
		xs = append(xs, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(30)-15)))
	}
	return xs
}

// TestMergeKeyMatchesFormat pins micros to the integer
// strconv.FormatFloat(x, 'f', 6, 64) prints, on every value the window
// admits, and checks the window's edges.
func TestMergeKeyMatchesFormat(t *testing.T) {
	for _, x := range mergeKeyValues() {
		q, ok := micros(x)
		inWindow := !math.IsNaN(x) && math.Abs(x) < 0x1p43
		if ok != inWindow {
			t.Fatalf("micros(%v): ok = %v, want %v", x, ok, inWindow)
		}
		if !ok {
			continue
		}
		text := strconv.FormatFloat(x, 'f', 6, 64)
		want, err := strconv.ParseInt(strings.Replace(text, ".", "", 1), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if q != want {
			t.Fatalf("micros(%v) = %d, FormatFloat prints %s", x, q, text)
		}
	}
}

// TestMergeKeyPartitionsLikeFormat: two values get equal level keys iff
// their "%.6f" texts are equal — negative zero and values rounding to it,
// NaN and ±Inf and the out-of-window tail included.
func TestMergeKeyPartitionsLikeFormat(t *testing.T) {
	keyOf := map[string]string{}  // text -> key
	textOf := map[string]string{} // key -> text
	for _, x := range mergeKeyValues() {
		text := strconv.FormatFloat(x, 'f', 6, 64)
		key := string(appendLevelKey(nil, x))
		if k, seen := keyOf[text]; seen && k != key {
			t.Fatalf("%v prints %s like an earlier value but keys %q, not %q", x, text, key, k)
		}
		if s, seen := textOf[key]; seen && s != text {
			t.Fatalf("%v prints %s but keys like an earlier value that printed %s", x, text, s)
		}
		keyOf[text], textOf[key] = key, text
	}
	for _, x := range []float64{math.Copysign(0, -1), -1e-7, -4.9e-7, -1e-300} {
		if got := appendLevelKey(nil, x); string(got) != string(rune(keyNegZero)) {
			t.Errorf("%v (prints %s) keys %q, want the negative-zero key", x, strconv.FormatFloat(x, 'f', 6, 64), got)
		}
	}
}

// TestMergeKeyConcatenation: a row's key sequence is self-delimiting, so
// joined keys are equal iff the joined texts are (a text key can never
// swallow the next key).
func TestMergeKeyConcatenation(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1e50, math.NaN(), 1.5e-6, -0x1p43, 7}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				for _, d := range vals {
					k1 := string(appendLevelKey(appendLevelKey(nil, a), b))
					k2 := string(appendLevelKey(appendLevelKey(nil, c), d))
					t1 := strconv.FormatFloat(a, 'f', 6, 64) + "," + strconv.FormatFloat(b, 'f', 6, 64)
					t2 := strconv.FormatFloat(c, 'f', 6, 64) + "," + strconv.FormatFloat(d, 'f', 6, 64)
					if (k1 == k2) != (t1 == t2) {
						t.Fatalf("(%v,%v) vs (%v,%v): keys equal %v, texts equal %v", a, b, c, d, k1 == k2, t1 == t2)
					}
				}
			}
		}
	}
}

// FuzzMergeKey: for any two floats, level keys are equal iff the "%.6f"
// texts are.
func FuzzMergeKey(f *testing.F) {
	f.Add(0.0078125, 0.007812)
	f.Add(-1e-7, 0.0)
	f.Add(0x1p43, 0x1p43-0.5)
	f.Fuzz(func(t *testing.T, a, b float64) {
		ka, kb := string(appendLevelKey(nil, a)), string(appendLevelKey(nil, b))
		ta, tb := strconv.FormatFloat(a, 'f', 6, 64), strconv.FormatFloat(b, 'f', 6, 64)
		if (ka == kb) != (ta == tb) {
			t.Fatalf("%v, %v: keys equal %v, texts %s %s", a, b, ka == kb, ta, tb)
		}
	})
}
