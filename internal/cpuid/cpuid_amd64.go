//go:build amd64 && !purego

package cpuid

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint32

// XCR0 bits: the state components the OS saves across context switches.
const (
	xcr0AVX    = 1<<1 | 1<<2                  // SSE, AVX
	xcr0AVX512 = xcr0AVX | 1<<5 | 1<<6 | 1<<7 // opmask, ZMM0-15 high halves, ZMM16-31
)

// leaf7 returns CPUID leaf 7's EBX and ECX feature words, or zeros on a
// CPU whose maximum leaf is below 7 or whose OS does not enable AVX
// (the OSXSAVE and AVX bits of leaf 1).
func leaf7() (ebx, ecx uint32) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return 0, 0
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return 0, 0
	}
	_, ebx, ecx, _ = cpuid(7, 0)
	return ebx, ecx
}

// AVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// state across context switches.
func AVX2() bool {
	ebx, _ := leaf7()
	return ebx&(1<<5) != 0 && xgetbv0()&xcr0AVX == xcr0AVX
}

// AVX512 reports whether the CPU implements AVX2 and AVX-512F and the
// OS saves the opmask and ZMM state across context switches.
func AVX512() bool {
	ebx, _ := leaf7()
	return AVX2() && ebx&(1<<16) != 0 && xgetbv0()&xcr0AVX512 == xcr0AVX512
}

// VAES512 reports whether the CPU runs AES rounds and carry-less
// multiplies on 512-bit registers: AVX-512F, BW and VL (leaf 7 EBX bits
// 16, 30, 31), BMI2 (bit 8, for the tail masks), VAES and VPCLMULQDQ
// (ECX bits 9 and 10), with the ZMM state saved by the OS.
func VAES512() bool {
	ebx, ecx := leaf7()
	const f, bw, vl, bmi2 = 1 << 16, 1 << 30, 1 << 31, 1 << 8
	const vaes, vpclmulqdq = 1 << 9, 1 << 10
	return AVX512() && ebx&(f|bw|vl|bmi2) == f|bw|vl|bmi2 && ecx&(vaes|vpclmulqdq) == vaes|vpclmulqdq
}
