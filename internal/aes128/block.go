package aes128

import (
	"encoding/binary"
	"math/bits"
)

// The tiered entry points of the package: "key(s) and blocks in,
// ciphertext out" over in-place 16-byte blocks, served by the kernels in
// aesni_amd64.s when the CPU has them and by the T-table code otherwise
// (non-amd64, no AES-NI, or -tags purego). There are three tiers: VAES,
// AES-NI and T-table. The AES-NI tier runs one gate's AES per call. The
// VAES tier adds the half-gate step kernels (GarbleStep, EvalStep), which
// run whole gates — gather, keys, AES, row selection, stores — two at a
// time over a run of a schedule step, and still takes the AES-NI kernels
// for the one-gate entry points. The choice is made once at init from
// CPUID and cannot be configured: every tier computes AES-128, so every
// output is byte-identical and only the speed differs. Backend reports
// which one is live.

// tier orders the implementations by what they need from the CPU; a
// host that runs one runs everything below it.
type tier uint8

const (
	tierTTable tier = iota
	tierAESNI
	tierVAES
)

// liveTier is the tier the entry points dispatch on. It is written once,
// here; the package's tests lower it to run every tier on one host.
var liveTier = detectTier()

// Block is one 16-byte AES block (or key) held as two little-endian
// 64-bit words: Lo is bytes 0..7, Hi bytes 8..15. On amd64 that is the
// block's memory image, so the kernels load and store a Block directly;
// the portable tier reassembles the big-endian state words from it.
// The layout is label.L's, which lets the garbler hash wire labels
// without a byte-staging pass.
type Block struct {
	Lo, Hi uint64
}

// LoadBlock reads a Block from the first 16 bytes of b.
func LoadBlock(b []byte) Block {
	return Block{
		Lo: binary.LittleEndian.Uint64(b[0:8]),
		Hi: binary.LittleEndian.Uint64(b[8:16]),
	}
}

// Backend names the AES tier the entry points in this file run on:
// "vaes" (the half-gate step kernels over the AES-NI ones), "aesni"
// (one-gate hardware kernels) or "ttable" (portable software). It is
// fixed for the life of the process.
func Backend() string {
	switch liveTier {
	case tierVAES:
		return "vaes"
	case tierAESNI:
		return "aesni"
	}
	return "ttable"
}

// words returns the block as the four big-endian state words of the
// T-table tier.
func (b *Block) words() (w0, w1, w2, w3 uint32) {
	return bits.ReverseBytes32(uint32(b.Lo)), bits.ReverseBytes32(uint32(b.Lo >> 32)),
		bits.ReverseBytes32(uint32(b.Hi)), bits.ReverseBytes32(uint32(b.Hi >> 32))
}

// setWords is the inverse of words.
func (b *Block) setWords(w0, w1, w2, w3 uint32) {
	b.Lo = uint64(bits.ReverseBytes32(w0)) | uint64(bits.ReverseBytes32(w1))<<32
	b.Hi = uint64(bits.ReverseBytes32(w2)) | uint64(bits.ReverseBytes32(w3))<<32
}

// ExpandFromBlock is ExpandFrom for a key held as a Block.
func (s *Schedule) ExpandFromBlock(key *Block) {
	s.expandWords(key.words())
}

// EncryptBlockTo encrypts one Block through the T-table path; dst and src
// may be the same block. Together with ExpandFromBlock it is the software
// reference the hardware tier is tested against.
func (s *Schedule) EncryptBlockTo(dst, src *Block) {
	dst.setWords(s.encryptWords(src.words()))
}

// FreshKeyEncrypt encrypts one block under a key used once: dst =
// AES_key(src). The hardware tier expands the key while it encrypts and
// stores no schedule. dst and src may be the same block.
func FreshKeyEncrypt(key, dst, src *Block) {
	if liveTier >= tierAESNI {
		freshKeyEncryptAESNI(key, dst, src)
		return
	}
	var s Schedule
	s.ExpandFromBlock(key)
	s.EncryptBlockTo(dst, src)
}

// FreshKeyPair encrypts one block under each of two fresh keys, dst[i] =
// AES_keys[i](src[i]) — the work of one evaluated AND gate. The
// hardware tier interleaves the two independent key expansions. dst and
// src may be the same array.
func FreshKeyPair(keys, dst, src *[2]Block) {
	if liveTier >= tierAESNI {
		freshKeyPairAESNI(keys, dst, src)
		return
	}
	var s Schedule
	s.ExpandFromBlock(&keys[0])
	s.EncryptBlockTo(&dst[0], &src[0])
	s.ExpandFromBlock(&keys[1])
	s.EncryptBlockTo(&dst[1], &src[1])
}

// FreshKeyPair2 encrypts two blocks under each of two fresh keys:
// src[0], src[1] under keys[0] and src[2], src[3] under keys[1] — the
// work of one garbled AND gate, each key expanded once for its two
// blocks. dst and src may be the same array.
func FreshKeyPair2(keys *[2]Block, dst, src *[4]Block) {
	if liveTier >= tierAESNI {
		freshKeyPair2AESNI(keys, dst, src)
		return
	}
	var s Schedule
	s.ExpandFromBlock(&keys[0])
	s.EncryptBlockTo(&dst[0], &src[0])
	s.EncryptBlockTo(&dst[1], &src[1])
	s.ExpandFromBlock(&keys[1])
	s.EncryptBlockTo(&dst[2], &src[2])
	s.EncryptBlockTo(&dst[3], &src[3])
}

// Gate is one AND gate as the step kernels read it: a 16-byte record
// with the slot indices of the two input labels and of the output label
// at byte offsets 4, 8 and 12. The first four bytes (the caller's opcode)
// are not read. It is circuit.Gate's memory layout, so a plan's gate
// stream is handed over as it lies.
type Gate struct {
	_       uint32
	A, B, C uint32
}

// GarbleStep garbles a run of independent half-gate AND gates, as many
// leading gates as the live tier has a step kernel for, and returns that
// count: an even number on the VAES tier — the caller's one-gate path
// takes an odd last gate — and 0 on every other, where the call does
// nothing. For gate i with j = index[i], labels a0 = slots[A], b0 =
// slots[B] and FreeXOR offset r it hashes H(x) = AES_K(x)^x under the
// fresh keys K(2j) for a0, a0^r and K(2j+1) for b0, b0^r (K(t) = t ‖ ^t),
// selects the half-gate rows by the colour bits of a0 and b0 with masks,
// not branches, and stores the rows TG ‖ TE to tables[j] and the output
// zero-label to slots[C].
//
// slots and tables point at the first element of the label arena and of
// the table stream. The kernel checks no bounds: the caller must have
// verified that every gate's A, B and C index the arena, that every
// index[i] is non-negative and indexes the tables, and that no gate of
// the run reads a slot another one writes.
func GarbleStep(slots *Block, tables *[2]Block, r *Block, gates []Gate, index []int32) int {
	n := min(len(gates), len(index)) &^ 1
	if liveTier < tierVAES || n == 0 {
		return 0
	}
	garbleStepVAES(slots, tables, r, &gates[0], &index[0], n/2)
	return n
}

// EvalStep is GarbleStep for the evaluator: with the active labels a =
// slots[A], b = slots[B] it hashes a under K(2j) and b under K(2j+1),
// reads the rows from tables[j], selects them by the colour bits of a
// and b with masks, and stores the output label to slots[C]. The same
// preconditions hold.
func EvalStep(slots *Block, tables *[2]Block, gates []Gate, index []int32) int {
	n := min(len(gates), len(index)) &^ 1
	if liveTier < tierVAES || n == 0 {
		return 0
	}
	evalStepVAES(slots, tables, &gates[0], &index[0], n/2)
	return n
}

// Cipher is AES-128 under one long-lived key: the schedule is expanded
// once by NewCipher and Encrypt runs any number of blocks through it. A
// Cipher is immutable after construction and safe for concurrent use.
type Cipher struct {
	ks Schedule          // T-table tier
	rk [Rounds + 1]Block // hardware tiers: the same round keys in memory order
}

// NewCipher expands key into a Cipher.
func NewCipher(key Block) *Cipher {
	c := new(Cipher)
	c.ks.ExpandFromBlock(&key)
	for r := range c.rk {
		c.rk[r].setWords(c.ks[4*r], c.ks[4*r+1], c.ks[4*r+2], c.ks[4*r+3])
	}
	return c
}

// Encrypt sets dst[i] = AES(src[i]) for every block of src. dst must be
// at least as long as src and may be the same slice.
func (c *Cipher) Encrypt(dst, src []Block) {
	if len(src) == 0 {
		return
	}
	dst = dst[:len(src)]
	if liveTier >= tierAESNI {
		encryptBlocksAESNI(&c.rk, &dst[0], &src[0], len(src))
		return
	}
	for i := range src {
		c.ks.EncryptBlockTo(&dst[i], &src[i])
	}
}
