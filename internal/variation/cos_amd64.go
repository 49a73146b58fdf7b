//go:build amd64

package variation

// haveAVX2 reports whether the CPU implements AVX2 and the operating system
// saves the YMM register state across context switches (CPUID leaf 1
// OSXSAVE+AVX, XCR0 bits 1-2, CPUID leaf 7 AVX2).
func haveAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cosBlocksAVX2 is implemented in cos_amd64.s.
//
//go:noescape
func cosBlocksAVX2(dv, xs, ys []float64, kx, ky, phase, amp float64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
