package ot

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"

	"haac/internal/aes128"
	"haac/internal/gc"
	"haac/internal/label"
)

// IKNP oblivious-transfer extension (Ishai-Kilian-Nissim-Petrank,
// semi-honest variant): k = 128 base OTs in the reverse direction are
// stretched into any number of transfers using only symmetric
// cryptography — the construction EMP and every practical GC framework
// use, since evaluator inputs routinely number in the tens of thousands
// (Hamm's 40960 input bits would need 40960 public-key operations with
// plain DH OT).
//
// Roles: the extension sender holds the message pairs; internally it
// plays the *receiver* of the k base OTs with a random choice vector s.
// The extension receiver plays the base sender with random seed pairs.
//
// The hot path is fully batched: columns are expanded from the base-OT
// seeds with per-column AES-CTR streams whose ciphers are built once per
// extension, the column-major matrix is flipped with a cache-blocked
// 64×64 bit transpose, and rows are hashed with a batched fixed-key AES
// correlation-robust hash (gc.FixedKeyHasher.Hash4). Both AES uses run
// on whichever tier internal/aes128 selected at start-up.
// Transfers stream in chunks of extChunk so million-OT batches run in
// bounded memory with O(1) allocations per chunk; choice bits travel as
// a packed Bitset end to end.

const (
	kappa    = 128 // security parameter / base-OT count
	rowWords = kappa / 64

	// extChunk is the number of transfers processed per streaming chunk:
	// large enough to amortize the per-chunk flush, small enough that the
	// working set (columns + rows + ciphertexts ≈ 1 MB) stays in cache.
	extChunk = 1 << 14
)

type row [rowWords]uint64

func (r *row) xor(o row) {
	for i := range r {
		r[i] ^= o[i]
	}
}

// --- per-column PRG ---

// prgStream stretches a 16-byte seed with AES-128 in counter mode. The
// cipher is expanded once at init and the counter persists across
// expand calls, so successive chunks of one extension continue the same
// pseudorandom stream without re-keying or reallocating.
type prgStream struct {
	c   *aes128.Cipher
	ctr uint64
}

func (p *prgStream) init(seed label.L) {
	p.c = aes128.NewCipher(aes128.Block(seed))
	p.ctr = 0
}

// expand fills dst with the next len(dst) words of the stream, two per
// counter block, several blocks per cipher call. An odd tail drops the
// second word of its block.
func (p *prgStream) expand(dst []uint64) {
	var blk [8]aes128.Block
	for len(dst) > 0 {
		n := (len(dst) + 1) / 2
		if n > len(blk) {
			n = len(blk)
		}
		for i := range blk[:n] {
			blk[i] = aes128.Block{Lo: p.ctr}
			p.ctr++
		}
		p.c.Encrypt(blk[:n], blk[:n])
		for _, b := range blk[:n] {
			dst[0] = b.Lo
			if len(dst) == 1 {
				return
			}
			dst[1] = b.Hi
			dst = dst[2:]
		}
	}
}

// --- batched correlation-robust row hash ---

// crKey is the fixed public AES key of the row hash. Fixed-key AES is
// the standard correlation-robust hash of OT extension (it only has to
// break the row correlations induced by s, not act as a PRF under
// adversarial keys), and it replaces the old per-row SHA-256 — two key
// schedules and 64 rounds of SHA per transfer — with AES blocks staged
// four at a time through one expanded cipher. The construction is
// exactly gc's fixed-key hasher, H(r, j) = AES_K(2r ^ j) ^ (2r ^ j),
// so the hasher is reused rather than re-implemented; it is stateless
// after construction, allocation-free and safe to share across
// extensions.
var crKey = [16]byte{'H', 'A', 'A', 'C', '.', 'i', 'k', 'n', 'p', '.', 'c', 'r', 'h', '.', 'v', '1'}

var crHasher = gc.NewFixedKeyHasher(crKey)

// rowLabel views a transpose row as a label for hashing: word w of the
// row is the w-th 64-column band, matching label.L's Lo/Hi layout.
func rowLabel(r row) label.L { return label.L{Lo: r[0], Hi: r[1]} }

// rowHash computes H(j, r) for one row (odd tails and tests; the hot
// loops batch four rows through crHasher.Hash4 directly).
func rowHash(j uint64, r row) label.L {
	return crHasher.Hash(rowLabel(r), j)
}

// xorBytesIntoWords XORs src (little-endian bytes) into dst words; a
// ragged tail shorter than 8 bytes is zero-extended.
func xorBytesIntoWords(dst []uint64, src []byte) {
	n := len(src)
	w := 0
	for ; (w+1)*8 <= n; w++ {
		dst[w] ^= binary.LittleEndian.Uint64(src[w*8:])
	}
	if rem := n - w*8; rem > 0 {
		var last [8]byte
		copy(last[:], src[w*8:])
		dst[w] ^= binary.LittleEndian.Uint64(last[:])
	}
}

// extScratch is the reusable per-extension working set: one chunk's
// column slab, transposed rows, wire buffers. Allocated once per
// Send/Receive call — sized for the largest chunk the batch actually
// needs, so a small extension does not pay the full-chunk megabyte —
// and recycled across every chunk.
type extScratch struct {
	cols []uint64 // kappa columns at the current chunk's word stride
	aux  []uint64 // receiver: second PRG expansion + u assembly
	rows []row    // transposed chunk
	ubuf []byte   // one column on the wire
	ct   []byte   // ciphertext slab for a whole chunk
}

func newExtScratch(m int) *extScratch {
	chunk := m
	if chunk > extChunk {
		chunk = extChunk
	}
	words := (chunk + 63) / 64
	return &extScratch{
		cols: make([]uint64, kappa*words),
		aux:  make([]uint64, 2*words),
		rows: make([]row, words*64),
		ubuf: make([]byte, words*8),
		ct:   make([]byte, 2*label.Size*chunk),
	}
}

// iknpSend runs the extension sender for a batch of pairs. base selects
// the protocol used for the k base OTs.
func iknpSend(conn io.ReadWriter, base Protocol, pairs []Pair) error {
	m := len(pairs)
	if m == 0 {
		return nil
	}

	// 1. Base OTs, reversed: we receive with random choices s.
	sBits, sRow, err := sampleS()
	if err != nil {
		return err
	}
	seeds, err := ReceiveBitset(conn, base, BitsetFromBools(sBits))
	if err != nil {
		return fmt.Errorf("ot: base OTs: %w", err)
	}

	// Hoisted steady-state scratch: per-column PRG streams (one key
	// schedule each for the whole extension), the row hash, and the
	// chunk slabs.
	prgs := make([]prgStream, kappa)
	for i := range prgs {
		prgs[i].init(seeds[i])
	}
	sc := newExtScratch(m)

	for off := 0; off < m; off += extChunk {
		mc := m - off
		if mc > extChunk {
			mc = extChunk
		}
		if err := sendChunk(conn, pairs[off:off+mc], uint64(off), sBits, sRow, prgs, sc); err != nil {
			return err
		}
	}
	return nil
}

// sampleS draws the extension sender's random base-OT choice vector s,
// returned both per-bit (for the column masks) and packed as a row (for
// the q ^ s hash inputs).
func sampleS() ([]bool, row, error) {
	var rb [kappa / 8]byte
	var sRow row
	if _, err := rand.Read(rb[:]); err != nil {
		return nil, sRow, fmt.Errorf("ot: sampling s: %w", err)
	}
	sBits := make([]bool, kappa)
	for i := range sBits {
		sBits[i] = rb[i/8]>>(uint(i)%8)&1 == 1
		if sBits[i] {
			sRow[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return sBits, sRow, nil
}

// sendChunk runs the sender side for one chunk of transfers: receive the
// masked columns u_i, build Q = PRG ^ (s_i ? u_i : 0) column-wise,
// transpose, and send both encrypted messages per transfer.
func sendChunk(conn io.ReadWriter, pairs []Pair, tweakOff uint64, sBits []bool, sRow row, prgs []prgStream, sc *extScratch) error {
	mc := len(pairs)
	colWords := (mc + 63) / 64
	colBytes := (mc + 7) / 8

	for i := 0; i < kappa; i++ {
		col := sc.cols[i*colWords : (i+1)*colWords]
		prgs[i].expand(col)
		u := sc.ubuf[:colBytes]
		if _, err := io.ReadFull(conn, u); err != nil {
			return fmt.Errorf("ot: reading column %d: %w", i, err)
		}
		if sBits[i] {
			xorBytesIntoWords(col, u)
		}
	}

	rows := sc.rows[:colWords*64]
	transposeColumns(rows, sc.cols[:kappa*colWords], colWords)

	// Encrypt both messages per transfer: y0 = m0 ^ H(j, q_j),
	// y1 = m1 ^ H(j, q_j ^ s) — two transfers per batched hash call.
	out := sc.ct[:2*label.Size*mc]
	j := 0
	for ; j+1 < mc; j += 2 {
		q0 := rows[j]
		q0s := q0
		q0s.xor(sRow)
		q1 := rows[j+1]
		q1s := q1
		q1s.xor(sRow)
		t0, t1 := tweakOff+uint64(j), tweakOff+uint64(j)+1
		k00, k01, k10, k11 := crHasher.Hash4(rowLabel(q0), rowLabel(q0s), rowLabel(q1), rowLabel(q1s), t0, t0, t1, t1)
		pairs[j].M0.Xor(k00).Put(out[j*32:])
		pairs[j].M1.Xor(k01).Put(out[j*32+16:])
		pairs[j+1].M0.Xor(k10).Put(out[j*32+32:])
		pairs[j+1].M1.Xor(k11).Put(out[j*32+48:])
	}
	if j < mc {
		q := rows[j]
		qs := q
		qs.xor(sRow)
		t := tweakOff + uint64(j)
		k0, k1 := rowHash(t, q), rowHash(t, qs)
		pairs[j].M0.Xor(k0).Put(out[j*32:])
		pairs[j].M1.Xor(k1).Put(out[j*32+16:])
	}
	if _, err := conn.Write(out); err != nil {
		return fmt.Errorf("ot: sending ciphertexts: %w", err)
	}
	return nil
}

// iknpReceive runs the extension receiver for a packed choice vector.
func iknpReceive(conn io.ReadWriter, base Protocol, choices Bitset) ([]label.L, error) {
	m := choices.Len()
	if m == 0 {
		return nil, nil
	}

	// 1. Base OTs, reversed: we send seed pairs.
	basePairs, err := baseSeedPairs()
	if err != nil {
		return nil, err
	}
	if err := Send(conn, base, basePairs); err != nil {
		return nil, fmt.Errorf("ot: base OTs: %w", err)
	}

	prg0 := make([]prgStream, kappa)
	prg1 := make([]prgStream, kappa)
	for i := range prg0 {
		prg0[i].init(basePairs[i].M0)
		prg1[i].init(basePairs[i].M1)
	}
	sc := newExtScratch(m)

	out := make([]label.L, m)
	for off := 0; off < m; off += extChunk {
		mc := m - off
		if mc > extChunk {
			mc = extChunk
		}
		if err := receiveChunk(conn, out[off:off+mc], uint64(off), choices, off, prg0, prg1, sc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// baseSeedPairs samples the kappa random seed pairs the extension
// receiver plays base-OT sender with.
func baseSeedPairs() ([]Pair, error) {
	basePairs := make([]Pair, kappa)
	for i := range basePairs {
		m0, err := label.Rand()
		if err != nil {
			return nil, err
		}
		m1, err := label.Rand()
		if err != nil {
			return nil, err
		}
		basePairs[i] = Pair{M0: m0, M1: m1}
	}
	return basePairs, nil
}

// receiveChunk runs the receiver side for one chunk: build T column-wise
// from PRG(seed0), send the masked columns u_i = PRG0_i ^ PRG1_i ^ r,
// transpose, and decrypt the chosen message per transfer with H(j, t_j).
func receiveChunk(conn io.ReadWriter, out []label.L, tweakOff uint64, choices Bitset, choiceOff int, prg0, prg1 []prgStream, sc *extScratch) error {
	mc := len(out)
	colWords := (mc + 63) / 64
	colBytes := (mc + 7) / 8
	wordOff := choiceOff / 64 // choiceOff is a multiple of extChunk, so word-aligned

	half := len(sc.aux) / 2
	ucol := sc.aux[:colWords]
	rcol := sc.aux[half : half+colWords]
	for w := 0; w < colWords; w++ {
		rcol[w] = choices.word(wordOff + w)
	}
	for i := 0; i < kappa; i++ {
		col0 := sc.cols[i*colWords : (i+1)*colWords]
		prg0[i].expand(col0)
		prg1[i].expand(ucol)
		for w := range ucol {
			ucol[w] ^= col0[w] ^ rcol[w]
		}
		u := sc.ubuf[:colBytes]
		for w := 0; w < colWords; w++ {
			if (w+1)*8 <= colBytes {
				binary.LittleEndian.PutUint64(u[w*8:], ucol[w])
			} else {
				var last [8]byte
				binary.LittleEndian.PutUint64(last[:], ucol[w])
				copy(u[w*8:], last[:])
			}
		}
		if _, err := conn.Write(u); err != nil {
			return fmt.Errorf("ot: sending column %d: %w", i, err)
		}
	}

	rows := sc.rows[:colWords*64]
	transposeColumns(rows, sc.cols[:kappa*colWords], colWords)

	enc := sc.ct[:2*label.Size*mc]
	if _, err := io.ReadFull(conn, enc); err != nil {
		return fmt.Errorf("ot: reading ciphertexts: %w", err)
	}
	j := 0
	for ; j+3 < mc; j += 4 {
		t := tweakOff + uint64(j)
		k0, k1, k2, k3 := crHasher.Hash4(rowLabel(rows[j]), rowLabel(rows[j+1]), rowLabel(rows[j+2]), rowLabel(rows[j+3]), t, t+1, t+2, t+3)
		out[j] = pick(enc, j, choices.Bit(choiceOff+j)).Xor(k0)
		out[j+1] = pick(enc, j+1, choices.Bit(choiceOff+j+1)).Xor(k1)
		out[j+2] = pick(enc, j+2, choices.Bit(choiceOff+j+2)).Xor(k2)
		out[j+3] = pick(enc, j+3, choices.Bit(choiceOff+j+3)).Xor(k3)
	}
	for ; j < mc; j++ {
		k := rowHash(tweakOff+uint64(j), rows[j])
		out[j] = pick(enc, j, choices.Bit(choiceOff+j)).Xor(k)
	}
	return nil
}

// pick selects the c-th ciphertext of transfer j from the chunk slab.
func pick(enc []byte, j, c int) label.L {
	off := j*2*label.Size + c*label.Size
	return label.FromBytes(enc[off : off+label.Size])
}
