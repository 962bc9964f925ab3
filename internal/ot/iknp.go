package ot

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"

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
// One core per role (extSender.extend, extReceiver.extend) runs a chunk
// of up to extChunk transfers, and both the on-demand extension below and
// Pool.Fill call it. A chunk is staged as whole streams, not per
// transfer, in three stages: each column is one AES-CTR expansion of its
// base-OT seed written in place (the key expanded once per extension),
// and the receiver's 128 masked columns leave in one write and arrive in
// one read; the column-major matrix is flipped 64×64 bits at a time
// (the sender adding the masked columns as it goes); and every row of
// the chunk is hashed with the fixed-key correlation-robust hash of
// gc.FixedKeyHasher. On the vaes512 and vaes tiers each stage is one
// vector kernel (fill.go): the PRG builds its counters in registers and
// the receiver's masking writes straight into the wire slab, the
// transpose runs eight (or four) 64×64 blocks side by side, and the hash
// forms, encrypts and feeds forward its inputs in registers, each under
// the round keys of the stage's aes128.Cipher. Elsewhere the stages are
// the Go code below, with both AES uses on whichever tier internal/aes128
// selected at start-up, and that code is the reference the kernels are
// tested against. The scratch is sized once per extension, so million-OT
// batches run in bounded memory with O(1) allocations per chunk; choice
// bits travel as a packed Bitset end to end.

const (
	kappa    = 128 // security parameter / base-OT count
	rowWords = kappa / 64

	// extChunk is the number of transfers processed per streaming chunk:
	// large enough to amortize the per-chunk flush, small enough that the
	// working set (columns + rows + ciphertexts ≈ 1 MB) stays in cache.
	extChunk = 1 << 14
)

type row [rowWords]uint64

// The hash reads a Pair as the two AES blocks it occupies and the wire
// as a gc.Material. These fail to compile if a layout moves.
var (
	_ [gc.MaterialSize]byte                   = [unsafe.Sizeof(Pair{})]byte{}
	_ [unsafe.Offsetof(gc.Material{}.TE)]byte = [unsafe.Offsetof(Pair{}.M1)]byte{}
	_ [label.Size]byte                        = [unsafe.Offsetof(Pair{}.M1)]byte{}
)

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
// counter block. An odd last word is the low half of one more block
// whose high half is dropped (its counter is still consumed).
func (p *prgStream) expand(dst []uint64) {
	if !expandKernel(liveFill, p, dst) {
		p.expandGo(dst)
	}
}

// expandGo is expand in Go: the counter blocks are written into dst's
// own memory and encrypted there in one cipher call.
func (p *prgStream) expandGo(dst []uint64) {
	blks := wordBlocks(dst)
	for i := range blks {
		blks[i] = aes128.Block{Lo: p.ctr}
		p.ctr++
	}
	p.c.Encrypt(blks, blks)
	if len(dst)&1 == 1 {
		last := [1]aes128.Block{{Lo: p.ctr}}
		p.ctr++
		p.c.Encrypt(last[:], last[:])
		dst[len(dst)-1] = last[0].Lo
	}
}

// wordBlocks views the leading even number of words of w as AES blocks:
// word 2i is block i's Lo, word 2i+1 its Hi.
func wordBlocks(w []uint64) []aes128.Block {
	if len(w) < 2 {
		return nil // a lone word is no block; the pointer may not cover one
	}
	return unsafe.Slice((*aes128.Block)(unsafe.Pointer(unsafe.SliceData(w))), len(w)/2)
}

// --- chunk-wide correlation-robust row hash ---

// crKey is the fixed public AES key of the row hash. Fixed-key AES is
// the standard correlation-robust hash of OT extension (it only has to
// break the row correlations induced by s, not act as a PRF under
// adversarial keys). The construction is exactly gc's fixed-key hasher
// under this key, H(r, j) = AES_K(2r ^ j) ^ (2r ^ j) — the tests pin the
// two together — run here over a whole chunk in one cipher call.
var crKey = [16]byte{'H', 'A', 'A', 'C', '.', 'i', 'k', 'n', 'p', '.', 'c', 'r', 'h', '.', 'v', '1'}

// crCipher is AES under crKey; it is immutable and safe to share.
var crCipher = aes128.NewCipher(aes128.LoadBlock(crKey[:]))

// doubled returns the hash input 2r ^ j of row r at transfer index j,
// reading word w of the row as the w-th 64-column band (label.L's Lo/Hi
// layout).
func doubled(r row, j uint64) label.L {
	return label.L{Lo: r[0]<<1 ^ j, Hi: r[1]<<1 | r[0]>>63}
}

// hashRows sets dst[j] = H(rows[j], t+j) for every j < len(dst).
func hashRows(dst []label.L, rows []row, t uint64) {
	if !hashRowsKernel(liveFill, dst, rows, t) {
		hashRowsGo(dst, rows, t)
	}
}

// hashRowsGo is hashRows in Go: it writes the inputs into dst, encrypts
// dst in place in one call and XORs the inputs back in.
func hashRowsGo(dst []label.L, rows []row, t uint64) {
	rows = rows[:len(dst)]
	for j, r := range rows {
		dst[j] = doubled(r, t+uint64(j))
	}
	blks := unsafe.Slice((*aes128.Block)(unsafe.SliceData(dst)), len(dst))
	crCipher.Encrypt(blks, blks)
	for j, r := range rows {
		dst[j] = dst[j].Xor(doubled(r, t+uint64(j)))
	}
}

// hashRowPairs sets dst[j] = (H(q_j, t+j), H(q_j ^ s, t+j)) for the rows
// q_j and every j < len(dst).
func hashRowPairs(dst []Pair, rows []row, s row, t uint64) {
	if !hashRowPairsKernel(liveFill, dst, rows, s, t) {
		hashRowPairsGo(dst, rows, s, t)
	}
}

// hashRowPairsGo is hashRowPairs in Go, staged like hashRowsGo with both
// inputs of a transfer side by side.
func hashRowPairsGo(dst []Pair, rows []row, s row, t uint64) {
	rows = rows[:len(dst)]
	ds := doubled(s, 0) // 2(q ^ s) ^ j = (2q ^ j) ^ 2s
	for j, q := range rows {
		d := doubled(q, t+uint64(j))
		dst[j] = Pair{M0: d, M1: d.Xor(ds)}
	}
	blks := pairBlocks(dst)
	crCipher.Encrypt(blks, blks)
	for j, q := range rows {
		d := doubled(q, t+uint64(j))
		dst[j] = Pair{M0: dst[j].M0.Xor(d), M1: dst[j].M1.Xor(d.Xor(ds))}
	}
}

// pairBlocks views ps as its 2·len(ps) labels' AES blocks.
func pairBlocks(ps []Pair) []aes128.Block {
	return unsafe.Slice((*aes128.Block)(unsafe.Pointer(unsafe.SliceData(ps))), 2*len(ps))
}

// pairTables views ps as garbled-table records. A transfer's ciphertext
// pair y0 | y1 has a table's layout TG | TE, so the ciphertext slab
// travels through gc's wire view (MaterialBytes) and byte-order helpers
// (MaterialsToWire, MaterialsFromWire) with no copy.
func pairTables(ps []Pair) []gc.Material {
	return unsafe.Slice((*gc.Material)(unsafe.Pointer(unsafe.SliceData(ps))), len(ps))
}

// xorBytesIntoWords XORs src (little-endian bytes) into dst words; a
// ragged tail shorter than 8 bytes is zero-extended.
func xorBytesIntoWords(dst []uint64, src []byte) {
	w := 0
	for ; 8*(w+1) <= len(src); w++ {
		dst[w] ^= binary.LittleEndian.Uint64(src[8*w:])
	}
	for i := 8 * w; i < len(src); i++ {
		dst[w] ^= uint64(src[i]) << (8 * uint(i-8*w))
	}
}

// putWords writes src as little-endian bytes into dst, which may end up
// to 7 bytes short of the last word.
func putWords(dst []byte, src []uint64) {
	w := 0
	for ; 8*(w+1) <= len(dst); w++ {
		binary.LittleEndian.PutUint64(dst[8*w:], src[w])
	}
	for i := 8 * w; i < len(dst); i++ {
		dst[i] = byte(src[w] >> (8 * uint(i-8*w)))
	}
}

// --- the chunk cores ---

// extScratch is one end's reusable chunk working set. It is sized for
// the largest chunk asked of it so far and recycled across chunks and,
// in a Pool, across fills.
type extScratch struct {
	cols []uint64 // kappa columns at the current chunk's word stride
	rows []row    // the transposed chunk
	wire []byte   // the chunk's kappa masked columns as they travel
	ucol []uint64 // receiver: one column of the second PRG stream
}

// fit sizes sc for a chunk of mc transfers.
func (sc *extScratch) fit(mc int) {
	words := (mc + 63) / 64
	if len(sc.rows) >= 64*words {
		return
	}
	sc.cols = make([]uint64, kappa*words)
	sc.rows = make([]row, 64*words)
	sc.wire = make([]byte, kappa*8*words)
	sc.ucol = make([]uint64, words)
}

// extSender is the extension sender's persistent state: the secret
// choice vector s it received the base OTs with (bit i of word i/64 is
// s_i), one PRG stream per received seed, and the next transfer index.
type extSender struct {
	s     row
	prgs  [kappa]prgStream
	tweak uint64
	sc    extScratch
}

// newExtSender runs the reversed base OTs over conn as their receiver,
// with a random choice vector s.
func newExtSender(conn io.ReadWriter, base Protocol) (*extSender, error) {
	e := new(extSender)
	var sb [kappa / 8]byte
	if _, err := rand.Read(sb[:]); err != nil {
		return nil, fmt.Errorf("ot: sampling s: %w", err)
	}
	e.s = row{binary.LittleEndian.Uint64(sb[:8]), binary.LittleEndian.Uint64(sb[8:])}
	seeds, err := ReceiveBitset(conn, base, Bitset{words: []uint64{e.s[0], e.s[1]}, n: kappa})
	if err != nil {
		return nil, fmt.Errorf("ot: base OTs: %w", err)
	}
	for i := range e.prgs {
		e.prgs[i].init(seeds[i])
	}
	return e, nil
}

// extend runs the sender side of one chunk of len(dst) ≤ extChunk
// transfers and sets dst[j] = (H(q_j), H(q_j ^ s)) under the chunk's
// transfer indices. It expands all kappa PRG columns first, then reads
// the receiver's masked columns u_i in one call, adds u_i into column i
// where s_i is set (Q = PRG ^ s·u), transposes Q and hashes its rows;
// the vector transpose adds the columns as it loads them, under masks
// of s rather than branches on it.
func (e *extSender) extend(r io.Reader, dst []Pair) error {
	mc := len(dst)
	colWords, colBytes := (mc+63)/64, (mc+7)/8
	e.sc.fit(mc)
	cols := e.sc.cols[:kappa*colWords]
	for i := range e.prgs {
		e.prgs[i].expand(cols[i*colWords : (i+1)*colWords])
	}
	wire := e.sc.wire[:kappa*colBytes]
	if _, err := io.ReadFull(r, wire); err != nil {
		return fmt.Errorf("ot: reading masked columns: %w", err)
	}
	rows := e.sc.rows[:64*colWords]
	if !transposeKernel(liveFill, rows, cols, colWords, wire, colBytes, &e.s) {
		addColumns(cols, colWords, wire, colBytes, e.s)
		transposeColumnsGo(rows, cols, colWords)
	}
	hashRowPairs(dst, rows, e.s, e.tweak)
	e.tweak += uint64(mc)
	return nil
}

// extReceiver is the extension receiver's persistent state: both PRG
// streams per base-OT seed pair and the next transfer index.
type extReceiver struct {
	prg0, prg1 [kappa]prgStream
	tweak      uint64
	sc         extScratch
}

// newExtReceiver runs the reversed base OTs over conn as their sender,
// with random seed pairs.
func newExtReceiver(conn io.ReadWriter, base Protocol) (*extReceiver, error) {
	basePairs, err := baseSeedPairs()
	if err != nil {
		return nil, err
	}
	if err := Send(conn, base, basePairs); err != nil {
		return nil, fmt.Errorf("ot: base OTs: %w", err)
	}
	e := new(extReceiver)
	for i := range e.prg0 {
		e.prg0[i].init(basePairs[i].M0)
		e.prg1[i].init(basePairs[i].M1)
	}
	return e, nil
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

// addColumns adds the receiver's masked columns into the sender's where
// s is set (Q = PRG ^ s·u): column i's bytes are wire[i*colBytes:].
func addColumns(cols []uint64, colWords int, wire []byte, colBytes int, s row) {
	for i := 0; i < kappa; i++ {
		if s[i/64]>>(i%64)&1 == 1 {
			xorBytesIntoWords(cols[i*colWords:(i+1)*colWords], wire[i*colBytes:(i+1)*colBytes])
		}
	}
}

// extend runs the receiver side of one chunk of len(dst) ≤ extChunk
// transfers with the packed choices r (bit j of r[j/64] is choice j)
// and sets dst[j] = H(t_j) under the chunk's transfer indices. It
// expands T = PRG0 column by column, assembles every masked column
// u_i = T_i ^ PRG1_i ^ r into one slab and writes it in one call, then
// transposes T and hashes its rows.
func (e *extReceiver) extend(w io.Writer, dst []label.L, r []uint64) error {
	mc := len(dst)
	colWords, colBytes := (mc+63)/64, (mc+7)/8
	e.sc.fit(mc)
	cols := e.sc.cols[:kappa*colWords]
	u := e.sc.ucol[:colWords]
	r = r[:colWords]
	wire := e.sc.wire[:kappa*colBytes]
	for i := 0; i < kappa; i++ {
		maskColumn(&e.prg0[i], &e.prg1[i], cols[i*colWords:(i+1)*colWords], wire[i*colBytes:(i+1)*colBytes], r, u)
	}
	if _, err := w.Write(wire); err != nil {
		return fmt.Errorf("ot: sending masked columns: %w", err)
	}
	rows := e.sc.rows[:64*colWords]
	transposeColumns(rows, cols, colWords)
	hashRows(dst, rows, e.tweak)
	e.tweak += uint64(mc)
	return nil
}

// maskColumn expands the next len(t) words of p0 into t and writes the
// masked column u = t ^ PRG1 ^ r (p1's next words) into wire as
// little-endian bytes; u is scratch of len(t) words. The kernels write
// whole words, up to 7 bytes past len(wire) into its capacity, so the
// receiver writes its columns in order and each overwrites the last
// one's spill.
func maskColumn(p0, p1 *prgStream, t []uint64, wire []byte, r, u []uint64) {
	if maskColumnKernel(liveFill, p0, p1, t, wire, r) {
		return
	}
	p0.expand(t)
	p1.expand(u)
	for k := range u {
		u[k] ^= t[k] ^ r[k]
	}
	putWords(wire, u)
}

// --- on-demand extension ---

// iknpSend runs the extension sender for a batch of pairs. base selects
// the protocol used for the k base OTs. Per chunk it answers the masked
// columns with both encrypted messages per transfer,
// y0 = m0 ^ H(j, q_j) and y1 = m1 ^ H(j, q_j ^ s), in one write.
func iknpSend(conn io.ReadWriter, base Protocol, pairs []Pair) error {
	m := len(pairs)
	if m == 0 {
		return nil
	}
	e, err := newExtSender(conn, base)
	if err != nil {
		return err
	}
	ct := make([]Pair, min(m, extChunk))
	for off := 0; off < m; off += extChunk {
		msgs := pairs[off:min(off+extChunk, m)]
		y := ct[:len(msgs)]
		if err := e.extend(conn, y); err != nil {
			return err
		}
		for j := range y {
			y[j] = Pair{M0: y[j].M0.Xor(msgs[j].M0), M1: y[j].M1.Xor(msgs[j].M1)}
		}
		wire := pairTables(y)
		gc.MaterialsToWire(wire)
		if _, err := conn.Write(gc.MaterialBytes(wire)); err != nil {
			return fmt.Errorf("ot: sending ciphertexts: %w", err)
		}
	}
	return nil
}

// iknpReceive runs the extension receiver for a packed choice vector.
func iknpReceive(conn io.ReadWriter, base Protocol, choices Bitset) ([]label.L, error) {
	m := choices.Len()
	if m == 0 {
		return nil, nil
	}
	e, err := newExtReceiver(conn, base)
	if err != nil {
		return nil, err
	}
	out := make([]label.L, m)
	ct := make([]Pair, min(m, extChunk))
	for off := 0; off < m; off += extChunk {
		dst := out[off:min(off+extChunk, m)]
		if err := e.extend(conn, dst, choices.words[off/64:]); err != nil {
			return nil, err
		}
		y := ct[:len(dst)]
		wire := pairTables(y)
		if _, err := io.ReadFull(conn, gc.MaterialBytes(wire)); err != nil {
			return nil, fmt.Errorf("ot: reading ciphertexts: %w", err)
		}
		gc.MaterialsFromWire(wire)
		for j := range dst {
			c := y[j].M0
			if choices.Bit(off+j) == 1 {
				c = y[j].M1
			}
			dst[j] = dst[j].Xor(c)
		}
	}
	return out, nil
}
