// Package aes128 is the repository's AES-128: key expansion and block
// encryption, the two computations HAAC's gate engines are built around.
// Every garbled AND gate performs full key expansions ("re-keying", §2.1
// of the paper) followed by AES block encryptions, so the accelerator's
// cost model — and the software garbler — both hinge on this primitive.
//
// Four implementations of the one function live here:
//
//   - a byte-oriented reference (Expand, Encrypt, EncryptBlock in this
//     file) that favours clarity; the cycle simulator's Half-Gate
//     pipeline and the AES-as-a-circuit workload are validated against it;
//   - a word-oriented T-table tier (ttable.go), portable and
//     allocation-free;
//   - an AES-NI tier (aesni_amd64.s) that derives a fresh key's round
//     keys in registers while it encrypts, as the paper's pipeline does;
//   - a VAES tier (same file) whose step kernels run whole half-gate AND
//     gates two at a time — label gather, both keys of a gate in one
//     256-bit register, AES, row selection, table and label stores — over
//     a run of a schedule step in one call.
//
// Callers on the hot paths (internal/gc, internal/ot) use the entry
// points in block.go — FreshKeyEncrypt, FreshKeyPair, FreshKeyPair2,
// Cipher, and the step kernels GarbleStep and EvalStep — which run the
// best hardware tier CPUID offers and the T-table tier otherwise (other
// architectures, or -tags purego). Backend reports which. All agree with each other and with crypto/aes byte for byte;
// the tests check that on random inputs, on every tier the host has.
package aes128

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// KeySize is the AES-128 key size in bytes.
const KeySize = 16

// Rounds is the number of AES-128 rounds.
const Rounds = 10

// ExpandedWords is the number of 32-bit round-key words (11 round keys).
const ExpandedWords = 4 * (Rounds + 1)

// ExpandedBytes is the expanded key schedule size in bytes (the "176 Byte"
// figure quoted in the paper's Half-Gate description).
const ExpandedBytes = 4 * ExpandedWords

// sbox is the AES forward substitution box.
var sbox = [256]byte{
	0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
	0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
	0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
	0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
	0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
	0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
	0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
	0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
	0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
	0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
	0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
	0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
	0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
	0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
	0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
	0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
}

// rcon holds the round constants for key expansion.
var rcon = [10]uint32{
	0x01000000, 0x02000000, 0x04000000, 0x08000000, 0x10000000,
	0x20000000, 0x40000000, 0x80000000, 0x1b000000, 0x36000000,
}

// Schedule is an expanded AES-128 key schedule.
type Schedule [ExpandedWords]uint32

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 |
		uint32(sbox[(w>>16)&0xff])<<16 |
		uint32(sbox[(w>>8)&0xff])<<8 |
		uint32(sbox[w&0xff])
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

// Expand computes the AES-128 key schedule for key. This is the "key
// expansion" step the paper counts as roughly an extra AES per invocation;
// re-keying garbling performs it twice per AND gate.
func Expand(key *[KeySize]byte) Schedule {
	var s Schedule
	for i := 0; i < 4; i++ {
		s[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 |
			uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
	}
	for i := 4; i < ExpandedWords; i++ {
		t := s[i-1]
		if i%4 == 0 {
			t = subWord(rotWord(t)) ^ rcon[i/4-1]
		}
		s[i] = s[i-4] ^ t
	}
	return s
}

// xtime multiplies a field element by x in GF(2^8) mod x^8+x^4+x^3+x+1.
func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1b
	}
	return b << 1
}

// Encrypt encrypts one 16-byte block in place using the expanded schedule.
// dst and src may overlap.
func Encrypt(s *Schedule, dst, src []byte) {
	var st [16]byte
	copy(st[:], src[:16])

	addRoundKey(&st, s, 0)
	for round := 1; round < Rounds; round++ {
		subBytes(&st)
		shiftRows(&st)
		mixColumns(&st)
		addRoundKey(&st, s, round)
	}
	subBytes(&st)
	shiftRows(&st)
	addRoundKey(&st, s, Rounds)

	copy(dst[:16], st[:])
}

func addRoundKey(st *[16]byte, s *Schedule, round int) {
	for c := 0; c < 4; c++ {
		w := s[4*round+c]
		st[4*c+0] ^= byte(w >> 24)
		st[4*c+1] ^= byte(w >> 16)
		st[4*c+2] ^= byte(w >> 8)
		st[4*c+3] ^= byte(w)
	}
}

func subBytes(st *[16]byte) {
	for i := range st {
		st[i] = sbox[st[i]]
	}
}

// shiftRows rotates row r of the column-major state left by r positions.
func shiftRows(st *[16]byte) {
	st[1], st[5], st[9], st[13] = st[5], st[9], st[13], st[1]
	st[2], st[6], st[10], st[14] = st[10], st[14], st[2], st[6]
	st[3], st[7], st[11], st[15] = st[15], st[3], st[7], st[11]
}

func mixColumns(st *[16]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := st[4*c], st[4*c+1], st[4*c+2], st[4*c+3]
		st[4*c+0] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3
		st[4*c+1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3
		st[4*c+2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3)
		st[4*c+3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3)
	}
}

// EncryptBlock is a convenience wrapper that expands key and encrypts one
// block. It costs a key expansion per call, which is exactly the
// "re-keying" behaviour HAAC models; hot paths that reuse a key should
// call Expand once and Encrypt many times.
func EncryptBlock(key *[KeySize]byte, dst, src []byte) {
	s := Expand(key)
	Encrypt(&s, dst, src)
}

// SBox exposes the forward S-box table for circuit generators that build
// AES as Boolean logic (the Table 5 AES-128 micro-benchmark).
func SBox(i byte) byte { return sbox[i] }
