//go:build amd64

package cpufeat

// probe reads CPUID leaf 1 (OSXSAVE, AVX, FMA), XCR0 bits 1-2 (the OS saves
// XMM and YMM state) and CPUID leaf 7 (AVX2).
func probe() (avx2, fma bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	const fma3, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false, false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false, false
	}
	const avx2Bit = 1 << 5
	if _, ebx7, _, _ := cpuid(7, 0); ebx7&avx2Bit == 0 {
		return false, false
	}
	return true, ecx1&fma3 != 0
}

// cpuid and xgetbv are implemented in cpufeat_amd64.s.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
