package ot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"testing"
	"testing/iotest"

	"haac/internal/label"
)

// derandCase is one derandomization batch against a known pair of
// pools: the sender's banked masks, the receiver's random choices and
// learned masks, the batch's messages and choices, and the bytes and
// labels a one-shot reference formula gives for them.
type derandCase struct {
	sp, rp  *Pool
	pairs   []Pair
	choices Bitset
	frame   []byte    // 0xD5 | m u32 | e_j = c_j ^ d_j
	masked  []byte    // y0 | y1 = m_i ^ r_(i ^ e_j)
	want    []label.L // m_(c_j)
}

// newDerandCase builds a batch of m transfers over pools holding
// correlations for it behind a consumed prefix and ahead of a spare
// tail, so the halves must index from the pools' heads. The reference
// is written out here, transfer by transfer, independently of the
// pieces.
func newDerandCase(m int, rng *rand.Rand) *derandCase {
	const skip, spare = 3, 5
	total := skip + m + spare
	lab := func() label.L { return label.L{Hi: rng.Uint64(), Lo: rng.Uint64()} }
	masks := make([]Pair, total)
	rl := make([]label.L, total)
	d := make([]byte, total)
	for j := range masks {
		masks[j] = Pair{M0: lab(), M1: lab()}
		d[j] = byte(rng.IntN(2))
		rl[j] = masks[j].M0
		if d[j] == 1 {
			rl[j] = masks[j].M1
		}
	}
	tc := &derandCase{
		sp:      &Pool{send: &extSender{}, masks: masks, head: skip},
		rp:      &Pool{recv: &extReceiver{}, rl: rl, d: d, head: skip},
		pairs:   make([]Pair, m),
		choices: NewBitset(m),
		want:    make([]label.L, m),
	}
	tc.frame = binary.LittleEndian.AppendUint32([]byte{derandMagic}, uint32(m))
	tc.frame = append(tc.frame, make([]byte, (m+7)/8)...)
	for j := range tc.pairs {
		tc.pairs[j] = Pair{M0: lab(), M1: lab()}
		c := rng.IntN(2)
		tc.choices.Set(j, c == 1)
		tc.want[j] = tc.pairs[j].M0
		if c == 1 {
			tc.want[j] = tc.pairs[j].M1
		}
		e := c ^ int(d[skip+j])
		tc.frame[derandHeaderLen+j/8] |= byte(e) << (j % 8)
		r0, r1 := masks[skip+j].M0, masks[skip+j].M1
		if e == 1 {
			r0, r1 = r1, r0
		}
		var y [maskedPairBytes]byte
		tc.pairs[j].M0.Xor(r0).Put(y[:])
		tc.pairs[j].M1.Xor(r1).Put(y[label.Size:])
		tc.masked = append(tc.masked, y[:]...)
	}
	return tc
}

// check runs both pieced halves of the batch, the frames reaching the
// other end through wrap, and compares every byte and label with the
// reference. The receiver builds its correction piece by piece; the
// sender reads the head, then answers each piece as it reads it; the
// receiver reads the answers piece by piece. Nothing is consumed until
// the last piece, and then exactly m correlations on each end.
func (tc *derandCase) check(t *testing.T, wrap func(io.Reader) io.Reader) {
	t.Helper()
	m := len(tc.pairs)
	sLevel, rLevel := tc.sp.Level(), tc.rp.Level()

	corr, err := tc.rp.Correction(tc.choices)
	if err != nil {
		t.Fatal(err)
	}
	if want := (m + DerandPiece - 1) / DerandPiece; corr.Pieces() != want {
		t.Fatalf("m %d: %d pieces, want %d", m, corr.Pieces(), want)
	}
	frame := corr.AppendHead(nil)
	for k := range corr.Pieces() {
		frame = corr.AppendPiece(frame, k)
	}
	if !bytes.Equal(frame, tc.frame) {
		t.Fatalf("m %d: pieced correction differs from the reference", m)
	}
	if whole, err := tc.rp.AppendCorrection([]byte{0x01}, tc.choices); err != nil || !bytes.Equal(whole[1:], tc.frame) {
		t.Fatalf("m %d: AppendCorrection differs from the reference (err %v)", m, err)
	}

	r := wrap(bytes.NewReader(frame))
	if err := tc.sp.ReadCorrectionHead(r, m); err != nil {
		t.Fatal(err)
	}
	var masked bytes.Buffer
	for k := range corr.Pieces() {
		if tc.sp.Level() != sLevel {
			t.Fatalf("m %d: sender consumed before its last piece", m)
		}
		if err := tc.sp.ReadCorrectionPiece(r, k); err != nil {
			t.Fatal(err)
		}
		if err := tc.sp.WriteMaskedPiece(&masked, tc.pairs, k); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(masked.Bytes(), tc.masked) {
		t.Fatalf("m %d: masked pairs differ from the reference", m)
	}
	if tc.sp.Level() != sLevel-m {
		t.Fatalf("m %d: sender level %d, want %d", m, tc.sp.Level(), sLevel-m)
	}

	out := make([]label.L, m)
	if err := tc.rp.ReadMasked(wrap(&masked), tc.choices, out); err != nil {
		t.Fatal(err)
	}
	for j := range out {
		if out[j] != tc.want[j] {
			t.Fatalf("m %d: transfer %d recovered %v, want %v", m, j, out[j], tc.want[j])
		}
	}
	if tc.rp.Level() != rLevel-m {
		t.Fatalf("m %d: receiver level %d, want %d", m, tc.rp.Level(), rLevel-m)
	}
}

// TestDerandPiecesMatchReference pins the pieced halves to the one-shot
// formula at sizes around a byte, a word and a piece, and across
// several pieces, with the frames delivered whole, one byte per Read
// and half of each Read.
func TestDerandPiecesMatchReference(t *testing.T) {
	const P = DerandPiece
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
	}
	for _, m := range []int{1, 63, 64, 65, P - 1, P, P + 1, 3*P + 5} {
		for _, rd := range readers {
			t.Run(fmt.Sprintf("m=%d/%s", m, rd.name), func(t *testing.T) {
				newDerandCase(m, rand.New(rand.NewPCG(uint64(m), 1))).check(t, rd.wrap)
			})
		}
	}
}

// TestDerandWholeHalvesMatchReference: SendDerand, the sender's whole
// batch as loops over its pieces, gives the reference bytes too.
func TestDerandWholeHalvesMatchReference(t *testing.T) {
	m := 2*DerandPiece + 9
	tc := newDerandCase(m, rand.New(rand.NewPCG(7, 7)))
	var masked bytes.Buffer
	if err := tc.sp.SendDerand(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(tc.frame), &masked}, tc.pairs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(masked.Bytes(), tc.masked) {
		t.Fatal("SendDerand differs from the reference")
	}
	if err := tc.sp.WriteMaskedPiece(&masked, tc.pairs, 0); err == nil {
		t.Fatal("a masked piece answered a correction already consumed")
	}
}

// fragReader hands out its source in reads sized by a repeating
// pattern (each size 1..256), the way a socket fragments a stream.
type fragReader struct {
	r    io.Reader
	frag []byte
	i    int
}

func (f *fragReader) Read(p []byte) (int, error) {
	if len(f.frag) > 0 {
		n := int(f.frag[f.i%len(f.frag)]) + 1
		f.i++
		p = p[:min(len(p), n)]
	}
	return f.r.Read(p)
}

// FuzzDerandPieces draws a batch size up to three pieces and a bit,
// random choices and messages, and a read fragmentation, and checks the
// pieced halves against the reference formula.
func FuzzDerandPieces(f *testing.F) {
	f.Add(uint32(1), uint64(1), []byte{0})
	f.Add(uint32(DerandPiece), uint64(2), []byte{7, 255})
	f.Add(uint32(DerandPiece+1), uint64(3), []byte{})
	f.Add(uint32(3*DerandPiece+5), uint64(4), []byte{31, 0, 200})
	f.Fuzz(func(t *testing.T, m uint32, seed uint64, frag []byte) {
		n := int(m%(3*DerandPiece+5)) + 1
		tc := newDerandCase(n, rand.New(rand.NewPCG(seed, uint64(n))))
		tc.check(t, func(r io.Reader) io.Reader { return &fragReader{r: r, frag: frag} })
	})
}

// BenchmarkPoolDerand times one 65 536-transfer pooled derandomization,
// both roles, over loopback TCP. "pieced" drives the halves the way a
// session does: the receiver writes the correction's head, then builds
// and writes its pieces on a second goroutine while it reads the masked
// pairs piece by piece; the sender answers each piece as it arrives.
// "whole" is SendDerand against ReceiveDerand, the two ends taking
// turns. The pools are topped back up outside the timer.
func BenchmarkPoolDerand(b *testing.B) {
	const m = 65536
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	cr, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cr.Close()
	cs := <-accepted
	if cs == nil {
		b.Fatal("accept failed")
	}
	defer cs.Close()
	var sp *Pool
	errc := make(chan error, 1)
	go func() {
		var err error
		sp, err = NewSenderPool(cs, Insecure)
		errc <- err
	}()
	rp, err := NewReceiverPool(cr, Insecure)
	if err == nil {
		err = <-errc
	}
	if err != nil {
		b.Fatal(err)
	}
	fill := func() {
		go func() { errc <- sp.Fill(cs, m) }()
		if err := rp.Fill(cr, m); err != nil {
			b.Fatal(err)
		}
		if err := <-errc; err != nil {
			b.Fatal(err)
		}
	}

	rng := rand.New(rand.NewPCG(1, 2))
	pairs := make([]Pair, m)
	choices := NewBitset(m)
	for j := range pairs {
		pairs[j] = Pair{M0: label.L{Lo: rng.Uint64()}, M1: label.L{Hi: rng.Uint64()}}
		choices.Set(j, rng.IntN(2) == 1)
	}
	out := make([]label.L, m)
	send := func() error {
		if err := sp.ReadCorrectionHead(cs, m); err != nil {
			return err
		}
		for k := range DerandPieces(m) {
			if err := sp.ReadCorrectionPiece(cs, k); err != nil {
				return err
			}
			if err := sp.WriteMaskedPiece(cs, pairs, k); err != nil {
				return err
			}
		}
		return nil
	}
	var piece []byte
	pieces := func(c Correction) error {
		for k := range c.Pieces() {
			piece = c.AppendPiece(piece[:0], k)
			if _, err := cr.Write(piece); err != nil {
				return err
			}
		}
		return nil
	}
	wrote := make(chan error, 1)
	var head []byte
	for _, mode := range []string{"pieced", "whole"} {
		b.Run(mode, func(b *testing.B) {
			b.SetBytes(m * maskedPairBytes)
			for range b.N {
				b.StopTimer()
				fill()
				b.StartTimer()
				if mode == "whole" {
					go func() { errc <- sp.SendDerand(cs, pairs) }()
					if err := rp.ReceiveDerand(cr, choices, out); err != nil {
						b.Fatal(err)
					}
				} else {
					go func() { errc <- send() }()
					c, err := rp.Correction(choices)
					if err != nil {
						b.Fatal(err)
					}
					head = c.AppendHead(head[:0])
					if _, err := cr.Write(head); err != nil {
						b.Fatal(err)
					}
					go func() { wrote <- pieces(c) }()
					err = rp.ReadMasked(cr, choices, out)
					if werr := <-wrote; err == nil {
						err = werr
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				if err := <-errc; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
