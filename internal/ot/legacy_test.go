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

// The IKNP chunk code as it was before the shared chunk cores: one
// 2 KiB write or read per column, AES-CTR eight blocks per cipher call,
// the row hash four blocks per call through gc.FixedKeyHasher, and the
// looped 64×64 transpose. It is kept as the reference peer that proves
// extSender.extend and extReceiver.extend put the same bytes on the wire
// and bank the same correlations (TestExtendLegacyPeerInterop,
// FuzzExtendChunk).

// crHasher is the row hash as gc's fixed-key hasher under crKey.
var crHasher = gc.NewFixedKeyHasher(crKey)

// rowLabel views a transpose row as a label for hashing.
func rowLabel(r row) label.L { return label.L{Lo: r[0], Hi: r[1]} }

// rowHash computes H(j, r) for one row.
func rowHash(j uint64, r row) label.L {
	return crHasher.Hash(rowLabel(r), j)
}

func (r *row) xor(o row) {
	for i := range r {
		r[i] ^= o[i]
	}
}

// legacyPRG is prgStream with the old expand: eight counter blocks per
// cipher call through a stack buffer.
type legacyPRG struct {
	c   *aes128.Cipher
	ctr uint64
}

func (p *legacyPRG) init(seed label.L) {
	p.c = aes128.NewCipher(aes128.Block(seed))
	p.ctr = 0
}

func (p *legacyPRG) expand(dst []uint64) {
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

// legacyTranspose64 is transpose64 with the stage loop rolled up.
func legacyTranspose64(a *[64]uint64) {
	j := uint(32)
	m := uint64(0x00000000FFFFFFFF)
	for j != 0 {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
		j >>= 1
		m ^= m << j
	}
}

func legacyTransposeColumns(rows []row, cols []uint64, colWords int) {
	var blk [64]uint64
	for w := 0; w < rowWords; w++ {
		for cw := 0; cw < colWords; cw++ {
			base := w * 64 * colWords
			for i := 0; i < 64; i++ {
				blk[i] = cols[base+i*colWords+cw]
			}
			legacyTranspose64(&blk)
			jBase := cw * 64
			for j := 0; j < 64; j++ {
				rows[jBase+j][w] = blk[j]
			}
		}
	}
}

func legacySampleS() ([]bool, row, error) {
	var rb [kappa / 8]byte
	var sRow row
	if _, err := rand.Read(rb[:]); err != nil {
		return nil, sRow, err
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

type legacyScratch struct {
	cols []uint64
	aux  []uint64
	rows []row
	ubuf []byte
	ct   []byte
}

func newLegacyScratch(m int) *legacyScratch {
	chunk := min(m, extChunk)
	words := (chunk + 63) / 64
	return &legacyScratch{
		cols: make([]uint64, kappa*words),
		aux:  make([]uint64, 2*words),
		rows: make([]row, words*64),
		ubuf: make([]byte, words*8),
		ct:   make([]byte, 2*label.Size*chunk),
	}
}

// legacySendColumns is the old sender column phase: expand column i,
// read u_i, add it in when s_i is set, column by column; then transpose.
func legacySendColumns(conn io.Reader, mc int, sBits []bool, prgs []legacyPRG, sc *legacyScratch) ([]row, error) {
	colWords := (mc + 63) / 64
	colBytes := (mc + 7) / 8
	for i := 0; i < kappa; i++ {
		col := sc.cols[i*colWords : (i+1)*colWords]
		prgs[i].expand(col)
		u := sc.ubuf[:colBytes]
		if _, err := io.ReadFull(conn, u); err != nil {
			return nil, fmt.Errorf("ot: reading column %d: %w", i, err)
		}
		if sBits[i] {
			xorBytesIntoWords(col, u)
		}
	}
	rows := sc.rows[:colWords*64]
	legacyTransposeColumns(rows, sc.cols[:kappa*colWords], colWords)
	return rows, nil
}

// legacyReceiveColumns is the old receiver column phase: one write per
// masked column u_i = PRG0_i ^ PRG1_i ^ r; then transpose.
func legacyReceiveColumns(conn io.Writer, mc int, rcol []uint64, prg0, prg1 []legacyPRG, sc *legacyScratch) ([]row, error) {
	colWords := (mc + 63) / 64
	colBytes := (mc + 7) / 8
	ucol := sc.aux[:colWords]
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
			return nil, fmt.Errorf("ot: sending column %d: %w", i, err)
		}
	}
	rows := sc.rows[:colWords*64]
	legacyTransposeColumns(rows, sc.cols[:kappa*colWords], colWords)
	return rows, nil
}

// legacyIKNPSend is iknpSend as it was.
func legacyIKNPSend(conn io.ReadWriter, base Protocol, pairs []Pair) error {
	m := len(pairs)
	if m == 0 {
		return nil
	}
	sBits, sRow, err := legacySampleS()
	if err != nil {
		return err
	}
	seeds, err := ReceiveBitset(conn, base, BitsetFromBools(sBits))
	if err != nil {
		return err
	}
	prgs := make([]legacyPRG, kappa)
	for i := range prgs {
		prgs[i].init(seeds[i])
	}
	sc := newLegacyScratch(m)
	for off := 0; off < m; off += extChunk {
		mc := min(m-off, extChunk)
		if err := legacySendChunk(conn, pairs[off:off+mc], uint64(off), sBits, sRow, prgs, sc); err != nil {
			return err
		}
	}
	return nil
}

func legacySendChunk(conn io.ReadWriter, pairs []Pair, tweakOff uint64, sBits []bool, sRow row, prgs []legacyPRG, sc *legacyScratch) error {
	mc := len(pairs)
	rows, err := legacySendColumns(conn, mc, sBits, prgs, sc)
	if err != nil {
		return err
	}
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
		pairs[j].M0.Xor(rowHash(t, q)).Put(out[j*32:])
		pairs[j].M1.Xor(rowHash(t, qs)).Put(out[j*32+16:])
	}
	_, err = conn.Write(out)
	return err
}

// legacyIKNPReceive is iknpReceive as it was.
func legacyIKNPReceive(conn io.ReadWriter, base Protocol, choices Bitset) ([]label.L, error) {
	m := choices.Len()
	if m == 0 {
		return nil, nil
	}
	basePairs, err := baseSeedPairs()
	if err != nil {
		return nil, err
	}
	if err := Send(conn, base, basePairs); err != nil {
		return nil, err
	}
	prg0 := make([]legacyPRG, kappa)
	prg1 := make([]legacyPRG, kappa)
	for i := range prg0 {
		prg0[i].init(basePairs[i].M0)
		prg1[i].init(basePairs[i].M1)
	}
	sc := newLegacyScratch(m)
	out := make([]label.L, m)
	for off := 0; off < m; off += extChunk {
		mc := min(m-off, extChunk)
		if err := legacyReceiveChunk(conn, out[off:off+mc], uint64(off), choices, off, prg0, prg1, sc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func legacyReceiveChunk(conn io.ReadWriter, out []label.L, tweakOff uint64, choices Bitset, choiceOff int, prg0, prg1 []legacyPRG, sc *legacyScratch) error {
	mc := len(out)
	colWords := (mc + 63) / 64
	rcol := sc.aux[len(sc.aux)/2:][:colWords]
	for w := range rcol {
		rcol[w] = choices.word(choiceOff/64 + w)
	}
	rows, err := legacyReceiveColumns(conn, mc, rcol, prg0, prg1, sc)
	if err != nil {
		return err
	}
	enc := sc.ct[:2*label.Size*mc]
	if _, err := io.ReadFull(conn, enc); err != nil {
		return err
	}
	pick := func(j, c int) label.L {
		off := j*2*label.Size + c*label.Size
		return label.FromBytes(enc[off : off+label.Size])
	}
	j := 0
	for ; j+3 < mc; j += 4 {
		t := tweakOff + uint64(j)
		k0, k1, k2, k3 := crHasher.Hash4(rowLabel(rows[j]), rowLabel(rows[j+1]), rowLabel(rows[j+2]), rowLabel(rows[j+3]), t, t+1, t+2, t+3)
		out[j] = pick(j, choices.Bit(choiceOff+j)).Xor(k0)
		out[j+1] = pick(j+1, choices.Bit(choiceOff+j+1)).Xor(k1)
		out[j+2] = pick(j+2, choices.Bit(choiceOff+j+2)).Xor(k2)
		out[j+3] = pick(j+3, choices.Bit(choiceOff+j+3)).Xor(k3)
	}
	for ; j < mc; j++ {
		out[j] = pick(j, choices.Bit(choiceOff+j)).Xor(rowHash(tweakOff+uint64(j), rows[j]))
	}
	return nil
}

// legacyPool is the old Pool's fill state and banks. After a fill,
// bank moves the banks into a Pool so the (unchanged) derandomization
// code can run them against a peer.
type legacyPool struct {
	sender     bool
	sBits      []bool
	sRow       row
	prgs       []legacyPRG
	prg0, prg1 []legacyPRG
	tweak      uint64
	sc         *legacyScratch
	r0, r1, rl []label.L
	d          []byte
}

func newLegacySenderPool(conn io.ReadWriter, base Protocol) (*legacyPool, error) {
	sBits, sRow, err := legacySampleS()
	if err != nil {
		return nil, err
	}
	seeds, err := ReceiveBitset(conn, base, BitsetFromBools(sBits))
	if err != nil {
		return nil, err
	}
	p := &legacyPool{sender: true, sBits: sBits, sRow: sRow, prgs: make([]legacyPRG, kappa)}
	for i := range p.prgs {
		p.prgs[i].init(seeds[i])
	}
	return p, nil
}

func newLegacyReceiverPool(conn io.ReadWriter, base Protocol) (*legacyPool, error) {
	basePairs, err := baseSeedPairs()
	if err != nil {
		return nil, err
	}
	if err := Send(conn, base, basePairs); err != nil {
		return nil, err
	}
	p := &legacyPool{prg0: make([]legacyPRG, kappa), prg1: make([]legacyPRG, kappa)}
	for i := range p.prg0 {
		p.prg0[i].init(basePairs[i].M0)
		p.prg1[i].init(basePairs[i].M1)
	}
	return p, nil
}

func (p *legacyPool) fill(conn io.ReadWriter, n int) error {
	if n <= 0 {
		return nil
	}
	if p.sc == nil || len(p.sc.rows) < (min(n, extChunk)+63)/64*64 {
		p.sc = newLegacyScratch(n)
	}
	for off := 0; off < n; off += extChunk {
		mc := min(n-off, extChunk)
		var err error
		if p.sender {
			err = p.fillSendChunk(conn, mc)
		} else {
			err = p.fillRecvChunk(conn, mc)
		}
		if err != nil {
			return err
		}
		p.tweak += uint64(mc)
	}
	return nil
}

func (p *legacyPool) fillSendChunk(conn io.ReadWriter, mc int) error {
	rows, err := legacySendColumns(conn, mc, p.sBits, p.prgs, p.sc)
	if err != nil {
		return err
	}
	j := 0
	for ; j+1 < mc; j += 2 {
		q0 := rows[j]
		q0s := q0
		q0s.xor(p.sRow)
		q1 := rows[j+1]
		q1s := q1
		q1s.xor(p.sRow)
		t0, t1 := p.tweak+uint64(j), p.tweak+uint64(j)+1
		k00, k01, k10, k11 := crHasher.Hash4(rowLabel(q0), rowLabel(q0s), rowLabel(q1), rowLabel(q1s), t0, t0, t1, t1)
		p.r0 = append(p.r0, k00, k10)
		p.r1 = append(p.r1, k01, k11)
	}
	if j < mc {
		q := rows[j]
		qs := q
		qs.xor(p.sRow)
		t := p.tweak + uint64(j)
		p.r0 = append(p.r0, rowHash(t, q))
		p.r1 = append(p.r1, rowHash(t, qs))
	}
	return nil
}

func (p *legacyPool) fillRecvChunk(conn io.ReadWriter, mc int) error {
	colWords := (mc + 63) / 64
	rcol := p.sc.aux[len(p.sc.aux)/2:][:colWords]
	rnd := make([]byte, colWords*8)
	if _, err := rand.Read(rnd); err != nil {
		return err
	}
	for w := range rcol {
		rcol[w] = binary.LittleEndian.Uint64(rnd[w*8:])
	}
	if tail := uint(mc % 64); tail != 0 {
		rcol[colWords-1] &= 1<<tail - 1
	}
	rows, err := legacyReceiveColumns(conn, mc, rcol, p.prg0, p.prg1, p.sc)
	if err != nil {
		return err
	}
	for j := 0; j < mc; j++ {
		p.rl = append(p.rl, rowHash(p.tweak+uint64(j), rows[j]))
		p.d = append(p.d, byte(rcol[j>>6]>>(uint(j)&63)&1))
	}
	return nil
}

// bank returns a Pool holding the legacy pool's stored correlations,
// ready for SendDerand or ReceiveDerand.
func (p *legacyPool) bank() *Pool {
	if p.sender {
		masks := make([]Pair, len(p.r0))
		for j := range masks {
			masks[j] = Pair{M0: p.r0[j], M1: p.r1[j]}
		}
		return &Pool{send: new(extSender), masks: masks}
	}
	return &Pool{recv: new(extReceiver), rl: p.rl, d: p.d}
}
