//go:build !amd64 || purego

package aes128

// No hardware tier in this build: the entry points in block.go only ever
// take their T-table branches and the stubs below are unreachable.
func detectTier() tier { return tierTTable }

func freshKeyEncryptAESNI(key, dst, src *Block)             { panic("aes128: no AES-NI tier") }
func freshKeyPairAESNI(keys, dst, src *[2]Block)            { panic("aes128: no AES-NI tier") }
func freshKeyPair2AESNI(keys *[2]Block, dst, src *[4]Block) { panic("aes128: no AES-NI tier") }
func encryptBlocksAESNI(rk *[Rounds + 1]Block, dst, src *Block, n int) {
	panic("aes128: no AES-NI tier")
}
func garbleStepVAES(slots *Block, tables *[2]Block, r *Block, free *Gate, nFree int, and *Gate, index *int32, nAnd int, zmm bool) {
	panic("aes128: no VAES tier")
}
func evalStepVAES(slots *Block, tables *[2]Block, free *Gate, nFree int, and *Gate, index *int32, nAnd int, zmm bool) {
	panic("aes128: no VAES tier")
}
