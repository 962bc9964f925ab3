package ot

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"haac/internal/label"
)

// Precomputed OT: a Pool runs the expensive part of oblivious transfer
// — base OTs plus IKNP extension — ahead of time against a fixed peer
// and stores the resulting *random*-OT correlations. Online, the stored
// correlations are derandomized against the real messages and choice
// bits (Beaver's trick) in a single XOR round, so a serving session's
// input phase costs two symmetric-speed messages instead of a base-OT
// handshake.
//
// Correlations: for transfer j the sender holds two random labels
// (r0, r1) and the receiver holds a random bit d and the label r_d.
// They come from the IKNP rows for free — the sender keeps
// r0 = H(j, q_j) and r1 = H(j, q_j ^ s), the receiver keeps d and
// H(j, t_j) — so a fill round sends only the receiver's 16 bytes/OT
// masked columns and no ciphertexts at all.
//
// Fill wire format (receiver → sender), per chunk of ≤ 16384 transfers:
//
//	128 masked columns u_i, ceil(n/8) bytes each (identical layout to
//	an IKNP extension chunk; no ciphertext phase follows)
//
// The receiver writes a chunk's 128 columns as one write and the sender
// reads them with one read; the bytes are the same as when each column
// travelled on its own. Both ends run the IKNP chunk cores of iknp.go,
// hashing straight into the banks below. The stream is one-way, so a
// fill can run beside traffic in the other direction. Both sides must
// agree on the fill size n without a wire field of the fill's own: the
// serving layer's handshake carries the first (the pooled accept's
// grant), and every later one is the in-run fill Decide derives from
// both ends' lockstep levels. The
// base-OT state (the sender's secret s and both sides' per-column PRG
// streams) persists across fills, so a connection pays its base OTs
// exactly once no matter how many fills follow.
//
// In-run fills: a pool given a target (SetTarget — the serving layer
// records the handshake's grant) is topped back up inside the
// runs that drain it. Decide is the one rule both roles apply before a
// run: a hit whose run leaves the pool at least min(target/2, 16384)
// correlations below its target carries a fill of the whole deficit.
// A pool without a target never carries one.
//
// Derandomization wire format, for a batch of n real transfers:
//
//	receiver → sender: 0xD5 | count u32 (LE) | e bits, ceil(n/8) bytes
//	sender → receiver: n × 32 bytes: y0 | y1 per transfer
//
// e_j = c_j ^ d_j is the choice correction (packed LSB-first like
// Bitset), and the sender answers y_i = m_i ^ r_(i^e_j), i.e. it swaps
// its two random masks when e_j is set; the receiver recovers
// m_c = y_c ^ r_d. Correlations are strictly consumed front to back and
// never reused: both frames are refused (ErrDerand) or fail
// (ErrPoolDrained) rather than stretch the pool.
//
// The correction depends only on the receiver's choices and its own
// bank, never on the messages, so it need not wait for the sender. The
// receiver builds the correction (AppendCorrection) and later reads the
// masked pairs (ReadMasked); the sender reads the correction's head
// (ReadCorrectionHead), then answers it a piece of DerandPiece transfers
// at a time (ReadCorrectionPiece, WriteMaskedPiece). The bytes above are
// written and read a piece at a time: e bits and masked pairs of piece k
// are the k-th slices of the frames, so the bytes are the same however
// the pieces are driven. A session sends the correction's head with its
// run request and its pieces (Correction) as it builds them, and the
// sender answers each piece as it arrives while the receiver reads the
// earlier answers. SendDerand and ReceiveDerand run the two whole
// frames back to back over one connection, with the same bytes.

// ErrPoolDrained reports a derandomization batch larger than the pool's
// current level; the caller falls back to an on-demand protocol.
var ErrPoolDrained = errors.New("ot: pool drained")

// ErrDerand reports a structurally invalid derandomization frame: bad
// magic or a count that does not match the agreed batch.
var ErrDerand = errors.New("ot: malformed derandomization frame")

const (
	derandMagic     = 0xD5
	derandHeaderLen = 5
	maskedPairBytes = 2 * label.Size
)

// Pool holds precomputed random-OT correlations against one peer,
// bound to the connection its base OTs ran over. One side constructs
// a sender pool, the other a receiver pool; Fill and the derand calls
// must then alternate in lockstep on both ends (a protocol session
// starts a run's in-run fill only once the run's derandomization is
// done, and joins it before the run ends). A Pool is not safe for
// concurrent use; a Correction drawn from it may be built beside the
// pool's ReadMasked (see Correction).
type Pool struct {
	// Persistent extension state: exactly one is set. Its transfer
	// index runs on monotonically across fills.
	send *extSender
	recv *extReceiver

	// Stored correlations, consumed front to back from head.
	masks []Pair    // sender: both random masks (r0, r1) per transfer
	rl    []label.L // receiver: the learned mask r_d per transfer
	d     []byte    // receiver: the random choice bit per transfer
	head  int

	rnd   []byte   // receiver: one chunk's random choice bytes
	rbits []uint64 // receiver: the same choices packed for the core

	ein     []byte // online scratch: correction frame
	mout    []byte // online scratch: masked-pair slab
	pending int    // sender: the batch the correction in ein was read for

	target int // the level in-run fills restore; 0: none (see Decide)
}

// NewSenderPool runs the one-time base-OT setup for the message-sender
// side over conn and returns an empty pool ready to Fill. base selects
// the protocol for the 128 base OTs: DH (secure) or Insecure
// (benchmarks only). The peer must run NewReceiverPool with the same
// base at the same point in the stream.
func NewSenderPool(conn io.ReadWriter, base Protocol) (*Pool, error) {
	if base != DH && base != Insecure {
		return nil, fmt.Errorf("ot: pool base protocol must be DH or Insecure, got %d", base)
	}
	e, err := newExtSender(conn, base)
	if err != nil {
		return nil, err
	}
	return &Pool{send: e}, nil
}

// NewReceiverPool runs the one-time base-OT setup for the choice-maker
// side over conn; see NewSenderPool.
func NewReceiverPool(conn io.ReadWriter, base Protocol) (*Pool, error) {
	if base != DH && base != Insecure {
		return nil, fmt.Errorf("ot: pool base protocol must be DH or Insecure, got %d", base)
	}
	e, err := newExtReceiver(conn, base)
	if err != nil {
		return nil, err
	}
	return &Pool{recv: e}, nil
}

// Level returns the number of unconsumed correlations.
func (p *Pool) Level() int {
	if p.send != nil {
		return len(p.masks) - p.head
	}
	return len(p.rl) - p.head
}

// SetTarget records t as the level in-run fills top the pool back up
// to. Both ends must record the same target at the same point in the
// stream; 0 (the default) turns in-run fills off.
func (p *Pool) SetTarget(t int) { p.target = t }

// Decide is the decision both roles take, each from its own lockstep
// level, before a run that needs n correlations. The run is a hit when
// the pool holds them (a nil pool, or n = 0, never hits). A hit carries
// an in-run fill of the whole deficit it leaves below the pool's
// target once that deficit reaches min(target/2, 16384), and none
// otherwise or without a target.
func (p *Pool) Decide(n int) (hit bool, fill int) {
	if p == nil || n <= 0 || p.Level() < n {
		return false, 0
	}
	deficit := p.target - (p.Level() - n)
	if p.target == 0 || deficit < max(1, min(p.target/2, extChunk)) {
		return true, 0
	}
	return true, deficit
}

// FillBytes returns the wire bytes of a fill of n correlations: 128
// masked columns of ceil(mc/8) bytes per chunk of mc, 16 bytes per OT
// when n is a multiple of 8. Both ends know it, so a byte budget can
// make room for exactly the fill a run carries.
func FillBytes(n int) int64 {
	var b int64
	for off := 0; off < n; off += extChunk {
		b += kappa * int64((min(n-off, extChunk)+7)/8)
	}
	return b
}

// Fill extends the pool by n correlations, streaming in IKNP-sized
// chunks. Both sides must call Fill with the same n at the same point
// in the connection's byte stream.
func (p *Pool) Fill(conn io.ReadWriter, n int) error {
	if n <= 0 {
		return nil
	}
	// The chunks extend into the banks' capacity. Consumed correlations
	// are compacted away only when it lacks room for the whole fill, and
	// the banks then grow to twice what the fill leaves live: a pool
	// topped up inside the runs that drain it (Decide) moves its live
	// correlations once per few fills instead of before every one.
	if p.room() < n {
		p.compact()
		live := p.Level() + n
		if p.send != nil {
			p.masks = slices.Grow(p.masks, 2*live-len(p.masks))
		} else {
			p.rl, p.d = slices.Grow(p.rl, 2*live-len(p.rl)), slices.Grow(p.d, 2*live-len(p.d))
		}
	}
	for off := 0; off < n; off += extChunk {
		mc := min(n-off, extChunk)
		var err error
		if p.send != nil {
			err = p.fillSend(conn, mc)
		} else {
			err = p.fillRecv(conn, mc)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fillSend runs the sender side of one fill chunk, banking
// (r0, r1) = (H(j, q_j), H(j, q_j ^ s)) per transfer.
func (p *Pool) fillSend(r io.Reader, mc int) error {
	k := len(p.masks)
	p.masks = p.masks[:k+mc]
	if err := p.send.extend(r, p.masks[k:]); err != nil {
		p.masks = p.masks[:k]
		return err
	}
	return nil
}

// fillRecv runs the receiver side of one fill chunk: draw random choice
// bits d and bank (d_j, H(j, t_j)) per transfer.
func (p *Pool) fillRecv(w io.Writer, mc int) error {
	words := (mc + 63) / 64
	p.rnd = growBytes(p.rnd, 8*words)
	if _, err := rand.Read(p.rnd); err != nil {
		return fmt.Errorf("ot: sampling pool choices: %w", err)
	}
	p.rbits = slices.Grow(p.rbits[:0], words)[:words]
	for i := range p.rbits {
		p.rbits[i] = binary.LittleEndian.Uint64(p.rnd[8*i:])
	}
	if tail := uint(mc % 64); tail != 0 {
		p.rbits[words-1] &= 1<<tail - 1
	}
	k := len(p.rl)
	p.rl = p.rl[:k+mc]
	if err := p.recv.extend(w, p.rl[k:], p.rbits); err != nil {
		p.rl = p.rl[:k]
		return err
	}
	p.d = p.d[:k+mc]
	d := p.d[k:]
	for j := range d {
		d[j] = byte(p.rbits[j>>6] >> (uint(j) & 63) & 1)
	}
	return nil
}

// SendDerand consumes len(pairs) pooled correlations to obliviously
// send the given message pairs: it reads and checks the receiver's
// whole choice correction (refusals wrap ErrDerand), then answers with
// the masked pairs (see the wire format above). The whole correction is
// read before any pair is written: a peer that writes its frame in one
// Write over an unbuffered connection is blocked until it has been
// read. Steady state performs no allocation and no public-key work.
func (p *Pool) SendDerand(conn io.ReadWriter, pairs []Pair) error {
	n := len(pairs)
	if err := p.ReadCorrectionHead(conn, n); err != nil {
		return err
	}
	for k := range DerandPieces(n) {
		if err := p.ReadCorrectionPiece(conn, k); err != nil {
			return err
		}
	}
	for k := range DerandPieces(n) {
		if err := p.WriteMaskedPiece(conn, pairs, k); err != nil {
			return err
		}
	}
	return nil
}

// ReceiveDerand consumes choices.Len() pooled correlations to learn the
// chosen message per transfer, writing them into out (whose length must
// match): AppendCorrection, one write, then ReadMasked. Steady state
// performs no allocation and no public-key work.
func (p *Pool) ReceiveDerand(conn io.ReadWriter, choices Bitset, out []label.L) error {
	n := choices.Len()
	if len(out) != n {
		return fmt.Errorf("ot: ReceiveDerand output length %d, want %d", len(out), n)
	}
	if n == 0 {
		return nil
	}
	frame, err := p.AppendCorrection(p.ein[:0], choices)
	if err != nil {
		return err
	}
	p.ein = frame
	if _, err := conn.Write(frame); err != nil {
		return fmt.Errorf("ot: sending derand frame: %w", err)
	}
	return p.ReadMasked(conn, choices, out)
}

// DerandPiece is the number of transfers in one piece of a
// derandomization batch: piece k is transfers [k·DerandPiece,
// (k+1)·DerandPiece). Each half below is a loop over the batch's
// pieces, and a session drives them piece by piece so the two ends
// overlap instead of taking turns. A multiple of 8, so every piece's
// correction bits are whole bytes; a batch of at most DerandPiece
// transfers is one piece.
const DerandPiece = 16384

// DerandPieces returns the number of pieces of a batch of n transfers.
func DerandPieces(n int) int { return (n + DerandPiece - 1) / DerandPiece }

// pieceSpan returns the transfers [lo, hi) of piece k of a batch of n.
func pieceSpan(n, k int) (lo, hi int) {
	lo = k * DerandPiece
	return lo, min(n, lo+DerandPiece)
}

// ReadCorrectionHead reads and checks the head of the receiver's choice
// correction for a batch of n transfers — its magic and count; refusals
// wrap ErrDerand — and opens the batch for its pieces.
func (p *Pool) ReadCorrectionHead(r io.Reader, n int) error {
	p.pending = 0
	if n == 0 {
		return nil
	}
	if err := p.check(true, n); err != nil {
		return err
	}
	p.ein = growBytes(p.ein, derandHeaderLen+(n+7)/8)
	h := p.ein[:derandHeaderLen]
	if _, err := io.ReadFull(r, h); err != nil {
		return fmt.Errorf("ot: reading derand frame: %w", err)
	}
	if h[0] != derandMagic {
		return fmt.Errorf("%w: bad magic 0x%02x", ErrDerand, h[0])
	}
	if got := binary.LittleEndian.Uint32(h[1:]); got != uint32(n) {
		return fmt.Errorf("%w: count %d, want %d", ErrDerand, got, n)
	}
	p.pending = n
	return nil
}

// ReadCorrectionPiece reads the correction bits of piece k of the batch
// ReadCorrectionHead opened.
func (p *Pool) ReadCorrectionPiece(r io.Reader, k int) error {
	lo, hi := pieceSpan(p.pending, k)
	if lo >= hi {
		return fmt.Errorf("ot: correction piece %d of a %d-transfer batch", k, p.pending)
	}
	if _, err := io.ReadFull(r, p.ein[derandHeaderLen+lo/8:derandHeaderLen+(hi+7)/8]); err != nil {
		return fmt.Errorf("ot: reading correction bits: %w", err)
	}
	return nil
}

// WriteMaskedPiece answers piece k of the correction ReadCorrectionHead
// opened, once ReadCorrectionPiece has read its bits, with the piece's
// masked pairs, y_i = m_i ^ r_(i^e_j) per transfer, in one write.
// The pairs are the whole batch the correction was read for; the pieces
// go out in order, and the last consumes the batch's correlations.
func (p *Pool) WriteMaskedPiece(w io.Writer, pairs []Pair, k int) error {
	n := len(pairs)
	lo, hi := pieceSpan(n, k)
	if n != p.pending || lo >= hi {
		return fmt.Errorf("ot: masked piece %d of %d pairs against a correction for %d", k, n, p.pending)
	}
	e := p.ein[derandHeaderLen+lo/8:]
	p.mout = growBytes(p.mout, maskedPairBytes*(hi-lo))
	out := p.mout
	for j, r := range p.masks[p.head+lo : p.head+hi] {
		r0, r1 := r.M0, r.M1
		if e[j>>3]>>(uint(j)&7)&1 == 1 {
			r0, r1 = r1, r0
		}
		pairs[lo+j].M0.Xor(r0).Put(out[j*maskedPairBytes:])
		pairs[lo+j].M1.Xor(r1).Put(out[j*maskedPairBytes+label.Size:])
	}
	if hi == n {
		p.head += n
		p.pending = 0
	}
	if _, err := w.Write(out); err != nil {
		return fmt.Errorf("ot: sending masked pairs: %w", err)
	}
	return nil
}

// Correction is one batch's choice correction, e_j = c_j ^ d_j over the
// batch's correlations, built a piece at a time. It holds the batch's
// choices and the pool's random choice bits for it, not the pool, so a
// session may build and send its pieces on one goroutine while another
// reads the masked pairs that answer them (ReadMasked). It stays valid
// until the pool's next Fill.
type Correction struct {
	choices Bitset
	d       []byte
}

// Correction returns the choice correction for choices over the next
// choices.Len() correlations, without consuming them: the ReadMasked
// for the same choices does.
func (p *Pool) Correction(choices Bitset) (Correction, error) {
	n := choices.Len()
	if err := p.check(false, n); err != nil {
		return Correction{}, err
	}
	return Correction{choices, p.d[p.head : p.head+n]}, nil
}

// Pieces returns the number of pieces of the correction's batch.
func (c Correction) Pieces() int { return DerandPieces(c.choices.Len()) }

// AppendHead appends the correction frame's head, its magic and count,
// to dst.
func (c Correction) AppendHead(dst []byte) []byte {
	return binary.LittleEndian.AppendUint32(append(dst, derandMagic), uint32(c.choices.Len()))
}

// AppendPiece appends the correction bits of piece k to dst.
func (c Correction) AppendPiece(dst []byte, k int) []byte {
	lo, hi := pieceSpan(c.choices.Len(), k)
	at := len(dst)
	dst = append(dst, make([]byte, (hi-lo+7)/8)...)
	e := dst[at:]
	for j, d := range c.d[lo:hi] {
		e[j>>3] |= byte(c.choices.Bit(lo+j)^int(d)) << (uint(j) & 7)
	}
	return dst
}

// AppendCorrection appends the whole choice-correction frame for
// choices to dst — the Correction's head, then every piece — without
// consuming its correlations: the ReadMasked for the same choices does.
// An empty batch appends nothing.
func (p *Pool) AppendCorrection(dst []byte, choices Bitset) ([]byte, error) {
	if choices.Len() == 0 {
		return dst, nil
	}
	c, err := p.Correction(choices)
	if err != nil {
		return dst, err
	}
	dst = c.AppendHead(dst)
	for k := range c.Pieces() {
		dst = c.AppendPiece(dst, k)
	}
	return dst, nil
}

// ReadMasked reads the sender's masked pairs answering the correction
// built for choices, piece by piece, recovers the chosen message per
// transfer into out (whose length must match) and consumes
// choices.Len() correlations.
func (p *Pool) ReadMasked(r io.Reader, choices Bitset, out []label.L) error {
	n := choices.Len()
	if len(out) != n {
		return fmt.Errorf("ot: ReadMasked output length %d, want %d", len(out), n)
	}
	if n == 0 {
		return nil
	}
	if err := p.check(false, n); err != nil {
		return err
	}
	for k := range DerandPieces(n) {
		if err := p.readMaskedPiece(r, choices, out, k); err != nil {
			return err
		}
	}
	p.head += n
	return nil
}

// readMaskedPiece reads piece k's masked pairs and recovers the piece's
// chosen messages into out, m_c = y_c ^ r_d.
func (p *Pool) readMaskedPiece(r io.Reader, choices Bitset, out []label.L, k int) error {
	lo, hi := pieceSpan(len(out), k)
	p.mout = growBytes(p.mout, maskedPairBytes*(hi-lo))
	in := p.mout
	if _, err := io.ReadFull(r, in); err != nil {
		return fmt.Errorf("ot: reading masked pairs: %w", err)
	}
	for j, rd := range p.rl[p.head+lo : p.head+hi] {
		off := j*maskedPairBytes + choices.Bit(lo+j)*label.Size
		out[lo+j] = label.FromBytes(in[off : off+label.Size]).Xor(rd)
	}
	return nil
}

// check refuses a derandomization half on the wrong role's pool or for
// a batch larger than the pool's level.
func (p *Pool) check(sender bool, n int) error {
	if (p.send != nil) != sender {
		if sender {
			return errors.New("ot: sender derandomization on a receiver pool")
		}
		return errors.New("ot: receiver derandomization on a sender pool")
	}
	if p.Level() < n {
		return fmt.Errorf("%w: have %d, need %d", ErrPoolDrained, p.Level(), n)
	}
	return nil
}

// room returns how many correlations the banks can take without
// moving or growing.
func (p *Pool) room() int {
	if p.send != nil {
		return cap(p.masks) - len(p.masks)
	}
	return min(cap(p.rl)-len(p.rl), cap(p.d)-len(p.d))
}

// compact discards consumed correlations so fills append into the slack
// the online phase opened up instead of growing without bound.
func (p *Pool) compact() {
	if p.head == 0 {
		return
	}
	if p.send != nil {
		p.masks = p.masks[:copy(p.masks, p.masks[p.head:])]
	} else {
		p.rl = p.rl[:copy(p.rl, p.rl[p.head:])]
		p.d = p.d[:copy(p.d, p.d[p.head:])]
	}
	p.head = 0
}

// growBytes returns b resized to n bytes, reallocating only when the
// capacity is short — the steady-state path reuses the old backing
// array.
func growBytes(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
