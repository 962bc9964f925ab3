//go:build amd64 && !purego

package aes128

// hasAESNI reports whether the kernels in aesni_amd64.s can run: they
// need AES-NI, SSSE3 for PSHUFB, and nothing beyond the SSE register
// state every amd64 OS saves.
var hasAESNI = func() bool {
	const ssse3, aesni = 1 << 9, 1 << 25
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&ssse3 != 0 && ecx&aesni != 0
}()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func freshKeyEncryptAESNI(key, dst, src *Block)

//go:noescape
func freshKeyPairAESNI(keys, dst, src *[2]Block)

//go:noescape
func freshKeyPair2AESNI(keys *[2]Block, dst, src *[4]Block)

//go:noescape
func encryptBlocksAESNI(rk *[Rounds + 1]Block, dst, src *Block, n int)
