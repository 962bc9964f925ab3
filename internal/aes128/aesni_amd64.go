//go:build amd64 && !purego

package aes128

// detectTier picks the fastest tier this CPU and OS can run. The AES-NI
// kernels in aesni_amd64.s need AES-NI, SSSE3 for PSHUFB, and nothing
// beyond the SSE register state every amd64 OS saves. The VAES kernels
// add 256-bit VAESENC and AVX2 integer ops, and an OS that saves the
// YMM halves across context switches (OSXSAVE set, XCR0 bits 1 and 2).
// Their ZMM stage adds AVX-512 F, BW and VL, and an OS that also saves
// the opmask and ZMM state (XCR0 bits 5, 6 and 7).
func detectTier() tier {
	const ssse3, aesni, osxsave, avx = 1 << 9, 1 << 25, 1 << 27, 1 << 28
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&ssse3 == 0 || ecx1&aesni == 0 {
		return tierTTable
	}
	if maxLeaf < 7 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return tierAESNI
	}
	const avx2, vaes, xmmYmmState = 1 << 5, 1 << 9, 0b110
	_, ebx7, ecx7, _ := cpuid(7, 0)
	xcr0, _ := xgetbv0()
	if ebx7&avx2 == 0 || ecx7&vaes == 0 || xcr0&xmmYmmState != xmmYmmState {
		return tierAESNI
	}
	const avx512 = 1<<16 | 1<<30 | 1<<31 // F, BW, VL
	const zmmState = xmmYmmState | 0b111<<5
	if ebx7&avx512 != avx512 || xcr0&zmmState != zmmState {
		return tierVAES
	}
	return tierVAES512
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0; only valid with OSXSAVE.
func xgetbv0() (eax, edx uint32)

//go:noescape
func freshKeyEncryptAESNI(key, dst, src *Block)

//go:noescape
func freshKeyPairAESNI(keys, dst, src *[2]Block)

//go:noescape
func freshKeyPair2AESNI(keys *[2]Block, dst, src *[4]Block)

//go:noescape
func encryptBlocksAESNI(rk *[Rounds + 1]Block, dst, src *Block, n int)

//go:noescape
func garbleStepVAES(slots *Block, tables *[2]Block, r *Block, free *Gate, nFree int, and *Gate, index *int32, nAnd int, zmm bool)

//go:noescape
func evalStepVAES(slots *Block, tables *[2]Block, free *Gate, nFree int, and *Gate, index *int32, nAnd int, zmm bool)
