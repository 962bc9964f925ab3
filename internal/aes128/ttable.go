package aes128

// The portable performance tier of the package: word-oriented
// ("T-table") AES-128 beside the clarity-first byte-oriented reference.
// Each T-table entry folds SubBytes and MixColumns for one input byte
// into a 32-bit word, so a full round is 16 table lookups and a handful
// of XORs instead of per-byte field arithmetic. The tier is built around
// caller-owned storage: ExpandFrom fills an existing Schedule and
// EncryptTo/EncryptBlocksTo write into caller buffers, so no call
// allocates. It is what the entry points in block.go run on hosts
// without AES-NI, and the software reference the hardware tiers are
// tested against.
//
// The tables and round structure follow FIPS-197 directly (they are the
// same construction crypto/aes uses for its non-asm fallback); equality
// with both crypto/aes and the reference implementation is pinned by
// tests on random vectors.

import "encoding/binary"

// te0..te3 are the four forward T-tables: te0[x] packs the MixColumns
// column (2·S(x), S(x), S(x), 3·S(x)) most-significant-byte first, and
// te1..te3 are byte rotations of te0 for the other three state rows.
var te0, te1, te2, te3 [256]uint32

func init() {
	for i := 0; i < 256; i++ {
		s := sbox[i]
		s2 := xtime(s)
		s3 := s2 ^ s
		w := uint32(s2)<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(s3)
		te0[i] = w
		te1[i] = w>>8 | w<<24
		te2[i] = w>>16 | w<<16
		te3[i] = w>>24 | w<<8
	}
}

// ExpandFrom computes the key schedule for key into s, overwriting its
// previous contents. It is the allocation-free form of Expand for hot
// paths that own a Schedule and re-key it per gate.
func (s *Schedule) ExpandFrom(key *[KeySize]byte) {
	s.expandWords(binary.BigEndian.Uint32(key[0:4]), binary.BigEndian.Uint32(key[4:8]),
		binary.BigEndian.Uint32(key[8:12]), binary.BigEndian.Uint32(key[12:16]))
}

// expandWords computes the schedule from the key's four big-endian
// words.
func (s *Schedule) expandWords(w0, w1, w2, w3 uint32) {
	s[0], s[1], s[2], s[3] = w0, w1, w2, w3
	for i := 4; i < ExpandedWords; i += 4 {
		t := s[i-1]
		t = subWord(t<<8|t>>24) ^ rcon[i/4-1]
		s[i] = s[i-4] ^ t
		s[i+1] = s[i-3] ^ s[i]
		s[i+2] = s[i-2] ^ s[i+1]
		s[i+3] = s[i-1] ^ s[i+2]
	}
}

// encryptWords runs the ten AES-128 rounds over one block held as four
// big-endian state words. It is the shared core of EncryptTo and
// EncryptBlocksTo.
func (s *Schedule) encryptWords(s0, s1, s2, s3 uint32) (uint32, uint32, uint32, uint32) {
	s0 ^= s[0]
	s1 ^= s[1]
	s2 ^= s[2]
	s3 ^= s[3]

	k := 4
	for round := 1; round < Rounds; round++ {
		t0 := te0[s0>>24] ^ te1[s1>>16&0xff] ^ te2[s2>>8&0xff] ^ te3[s3&0xff] ^ s[k+0]
		t1 := te0[s1>>24] ^ te1[s2>>16&0xff] ^ te2[s3>>8&0xff] ^ te3[s0&0xff] ^ s[k+1]
		t2 := te0[s2>>24] ^ te1[s3>>16&0xff] ^ te2[s0>>8&0xff] ^ te3[s1&0xff] ^ s[k+2]
		t3 := te0[s3>>24] ^ te1[s0>>16&0xff] ^ te2[s1>>8&0xff] ^ te3[s2&0xff] ^ s[k+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}

	// Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
	t0 := uint32(sbox[s0>>24])<<24 | uint32(sbox[s1>>16&0xff])<<16 | uint32(sbox[s2>>8&0xff])<<8 | uint32(sbox[s3&0xff])
	t1 := uint32(sbox[s1>>24])<<24 | uint32(sbox[s2>>16&0xff])<<16 | uint32(sbox[s3>>8&0xff])<<8 | uint32(sbox[s0&0xff])
	t2 := uint32(sbox[s2>>24])<<24 | uint32(sbox[s3>>16&0xff])<<16 | uint32(sbox[s0>>8&0xff])<<8 | uint32(sbox[s1&0xff])
	t3 := uint32(sbox[s3>>24])<<24 | uint32(sbox[s0>>16&0xff])<<16 | uint32(sbox[s1>>8&0xff])<<8 | uint32(sbox[s2&0xff])
	return t0 ^ s[40], t1 ^ s[41], t2 ^ s[42], t3 ^ s[43]
}

// EncryptTo encrypts one 16-byte block through the T-table path. dst and
// src may overlap; neither this call nor the word core allocates.
func (s *Schedule) EncryptTo(dst, src []byte) {
	s0 := binary.BigEndian.Uint32(src[0:4])
	s1 := binary.BigEndian.Uint32(src[4:8])
	s2 := binary.BigEndian.Uint32(src[8:12])
	s3 := binary.BigEndian.Uint32(src[12:16])
	s0, s1, s2, s3 = s.encryptWords(s0, s1, s2, s3)
	binary.BigEndian.PutUint32(dst[0:4], s0)
	binary.BigEndian.PutUint32(dst[4:8], s1)
	binary.BigEndian.PutUint32(dst[8:12], s2)
	binary.BigEndian.PutUint32(dst[12:16], s3)
}

// EncryptBlocksTo encrypts len(src)/BlockSize consecutive blocks under
// one schedule — the batched form the re-keyed garbler uses for the two
// blocks that share a gate tweak. len(src) must be a multiple of
// BlockSize and dst must be at least as long; dst and src may overlap
// block-aligned.
func (s *Schedule) EncryptBlocksTo(dst, src []byte) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1] // length check, not capacity: reject a short dst up front
	for off := 0; off+BlockSize <= len(src); off += BlockSize {
		s.EncryptTo(dst[off:off+BlockSize], src[off:off+BlockSize])
	}
}
