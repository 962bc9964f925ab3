package ot

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"

	"haac/internal/label"
)

// newPoolPair builds a connected sender/receiver pool over a pipe,
// returning both ends of the pipe for the online phase.
func newPoolPair(t *testing.T, base Protocol) (*Pool, *Pool, net.Conn, net.Conn) {
	t.Helper()
	cs, cr := net.Pipe()
	t.Cleanup(func() { cs.Close(); cr.Close() })
	var sp *Pool
	errc := make(chan error, 1)
	go func() {
		var err error
		sp, err = NewSenderPool(cs, base)
		errc <- err
	}()
	rp, err := NewReceiverPool(cr, base)
	if err != nil {
		t.Fatalf("NewReceiverPool: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("NewSenderPool: %v", err)
	}
	return sp, rp, cs, cr
}

// fillBoth runs one lockstep Fill of n on both pools.
func fillBoth(t *testing.T, sp, rp *Pool, cs, cr net.Conn, n int) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- sp.Fill(cs, n) }()
	if err := rp.Fill(cr, n); err != nil {
		t.Fatalf("receiver Fill(%d): %v", n, err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("sender Fill(%d): %v", n, err)
	}
}

// derandBoth runs one lockstep derandomized batch and checks the
// receiver learned exactly its chosen messages.
func derandBoth(t *testing.T, sp, rp *Pool, cs, cr net.Conn, n int) {
	t.Helper()
	pairs := make([]Pair, n)
	choices := NewBitset(n)
	var cb [1]byte
	for i := range pairs {
		m0, _ := label.Rand()
		m1, _ := label.Rand()
		pairs[i] = Pair{M0: m0, M1: m1}
		rand.Read(cb[:])
		choices.Set(i, cb[0]&1 == 1)
	}
	out := make([]label.L, n)
	errc := make(chan error, 1)
	go func() { errc <- sp.SendDerand(cs, pairs) }()
	if err := rp.ReceiveDerand(cr, choices, out); err != nil {
		t.Fatalf("ReceiveDerand(%d): %v", n, err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("SendDerand(%d): %v", n, err)
	}
	for i := range pairs {
		want := pairs[i].M0
		if choices.Bit(i) == 1 {
			want = pairs[i].M1
		}
		if out[i] != want {
			t.Fatalf("transfer %d: got %v, want %v (choice %d)", i, out[i], want, choices.Bit(i))
		}
	}
}

func TestPoolDerandMatchesChoices(t *testing.T) {
	sp, rp, cs, cr := newPoolPair(t, Insecure)
	// Ragged batch sizes cover bit-packing tails (1, 63..65) and
	// interleave refills with consumption across the compaction path.
	fillBoth(t, sp, rp, cs, cr, 200)
	if sp.Level() != 200 || rp.Level() != 200 {
		t.Fatalf("levels after fill: %d/%d, want 200", sp.Level(), rp.Level())
	}
	for _, n := range []int{1, 63, 64, 65, 7} {
		derandBoth(t, sp, rp, cs, cr, n)
	}
	if got := sp.Level(); got != 0 {
		t.Fatalf("sender level after draining: %d, want 0", got)
	}
	fillBoth(t, sp, rp, cs, cr, 130)
	derandBoth(t, sp, rp, cs, cr, 130)
}

func TestPoolDerandDHBase(t *testing.T) {
	before := BaseOTRounds()
	sp, rp, cs, cr := newPoolPair(t, DH)
	if got := BaseOTRounds() - before; got != 2 {
		t.Fatalf("base-OT rounds for setup: %d, want 2 (one per side)", got)
	}
	fillBoth(t, sp, rp, cs, cr, 96)
	derandBoth(t, sp, rp, cs, cr, 96)
	if got := BaseOTRounds() - before; got != 2 {
		t.Fatalf("base-OT rounds after fill+derand: %d, want still 2", got)
	}
}

func TestPoolMultiChunkFill(t *testing.T) {
	// A fill larger than extChunk must stream in chunks and keep the
	// tweak sequence monotone across them.
	sp, rp, cs, cr := newPoolPair(t, Insecure)
	n := extChunk + 257
	fillBoth(t, sp, rp, cs, cr, n)
	if sp.Level() != n || rp.Level() != n {
		t.Fatalf("levels after multi-chunk fill: %d/%d, want %d", sp.Level(), rp.Level(), n)
	}
	derandBoth(t, sp, rp, cs, cr, 1024)
	derandBoth(t, sp, rp, cs, cr, n-1024)
}

func TestPoolDrained(t *testing.T) {
	sp, rp, cs, cr := newPoolPair(t, Insecure)
	fillBoth(t, sp, rp, cs, cr, 8)
	if err := sp.SendDerand(cs, make([]Pair, 9)); !errors.Is(err, ErrPoolDrained) {
		t.Fatalf("SendDerand over level: %v, want ErrPoolDrained", err)
	}
	out := make([]label.L, 9)
	if err := rp.ReceiveDerand(cr, NewBitset(9), out); !errors.Is(err, ErrPoolDrained) {
		t.Fatalf("ReceiveDerand over level: %v, want ErrPoolDrained", err)
	}
	// The refusal consumed nothing: the batch that fits still works.
	derandBoth(t, sp, rp, cs, cr, 8)
}

func TestPoolRoleMisuse(t *testing.T) {
	sp, rp, _, _ := newPoolPair(t, Insecure)
	if err := sp.ReceiveDerand(nil, NewBitset(1), make([]label.L, 1)); err == nil {
		t.Fatal("ReceiveDerand on sender pool succeeded")
	}
	if err := rp.SendDerand(nil, make([]Pair, 1)); err == nil {
		t.Fatal("SendDerand on receiver pool succeeded")
	}
	if err := rp.ReceiveDerand(nil, NewBitset(2), make([]label.L, 1)); err == nil {
		t.Fatal("ReceiveDerand with mismatched output length succeeded")
	}
}

func TestPoolZeroBatch(t *testing.T) {
	sp, rp, _, _ := newPoolPair(t, Insecure)
	if err := sp.SendDerand(nil, nil); err != nil {
		t.Fatalf("empty SendDerand: %v", err)
	}
	if err := rp.ReceiveDerand(nil, NewBitset(0), nil); err != nil {
		t.Fatalf("empty ReceiveDerand: %v", err)
	}
	if err := sp.Fill(nil, 0); err != nil {
		t.Fatalf("empty Fill: %v", err)
	}
}

// TestPoolDerandHalves drives the two halves of each role with the
// frames held in memory between them, the way a session that sends the
// correction ahead of the sender's header does: building or reading the
// correction consumes nothing, the masked pairs consume the batch, and
// the receiver learns exactly its chosen messages.
func TestPoolDerandHalves(t *testing.T) {
	sp, rp, cs, cr := newPoolPair(t, Insecure)
	const n = 13
	fillBoth(t, sp, rp, cs, cr, 2*n)
	pairs := make([]Pair, n)
	choices := NewBitset(n)
	for i := range pairs {
		m0, _ := label.Rand()
		m1, _ := label.Rand()
		pairs[i] = Pair{M0: m0, M1: m1}
		choices.Set(i, i%3 == 1)
	}

	// The correction lands after whatever the caller already holds.
	req, err := rp.AppendCorrection([]byte{0x01}, choices)
	if err != nil {
		t.Fatal(err)
	}
	if len(req) != 1+derandHeaderLen+(n+7)/8 || req[0] != 0x01 || req[1] != derandMagic {
		t.Fatalf("run request %x: want 0x01, then a %d-transfer correction", req, n)
	}
	corr := bytes.NewReader(req[1:])
	if err := sp.ReadCorrectionHead(corr, n); err != nil {
		t.Fatal(err)
	}
	if err := sp.ReadCorrectionPiece(corr, 0); err != nil {
		t.Fatal(err)
	}
	if sp.Level() != 2*n || rp.Level() != 2*n {
		t.Fatalf("levels %d/%d after the correction, want %d: nothing is consumed yet", sp.Level(), rp.Level(), 2*n)
	}
	var masked bytes.Buffer
	if err := sp.WriteMaskedPiece(&masked, pairs[:n-1], 0); err == nil {
		t.Fatal("masked pairs for a batch the correction was not read for were written")
	}
	if err := sp.WriteMaskedPiece(&masked, pairs, 0); err != nil {
		t.Fatal(err)
	}
	if masked.Len() != n*maskedPairBytes || sp.Level() != n {
		t.Fatalf("masked slab %d bytes, sender level %d; want %d, %d", masked.Len(), sp.Level(), n*maskedPairBytes, n)
	}
	if err := sp.WriteMaskedPiece(&masked, pairs, 0); err == nil {
		t.Fatal("a second answer to the same correction was written")
	}
	out := make([]label.L, n)
	if err := rp.ReadMasked(&masked, choices, out); err != nil {
		t.Fatal(err)
	}
	if rp.Level() != n {
		t.Fatalf("receiver level %d, want %d", rp.Level(), n)
	}
	for i := range pairs {
		want := pairs[i].M0
		if choices.Bit(i) == 1 {
			want = pairs[i].M1
		}
		if out[i] != want {
			t.Fatalf("transfer %d: got %v, want %v", i, out[i], want)
		}
	}
	// The composed calls still run over the pools the halves left.
	derandBoth(t, sp, rp, cs, cr, n)
	if _, err := sp.AppendCorrection(nil, choices); err == nil {
		t.Fatal("AppendCorrection on a sender pool succeeded")
	}
	if err := rp.ReadCorrectionHead(bytes.NewReader(req[1:]), n); err == nil {
		t.Fatal("ReadCorrectionHead on a receiver pool succeeded")
	}
}

// bareSender returns a sender pool holding level correlations and no
// extension state: enough to parse and answer corrections.
func bareSender(level int) *Pool {
	return &Pool{send: &extSender{}, masks: make([]Pair, level)}
}

// frameConn is a connection that reads frame and discards what is
// written to it: a sender's SendDerand against a receiver's correction.
func frameConn(frame []byte) io.ReadWriter {
	return struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(frame), io.Discard}
}

func TestDerandFrameRefusals(t *testing.T) {
	sp := bareSender(3)
	pairs := make([]Pair, 3)
	// Bad magic.
	bad := []byte{0x00, 3, 0, 0, 0, 0b101}
	if err := sp.SendDerand(frameConn(bad), pairs); !errors.Is(err, ErrDerand) {
		t.Fatalf("bad magic: %v, want ErrDerand", err)
	}
	// Count mismatch.
	mismatch := []byte{derandMagic, 4, 0, 0, 0, 0b101}
	if err := sp.SendDerand(frameConn(mismatch), pairs); !errors.Is(err, ErrDerand) {
		t.Fatalf("count mismatch: %v, want ErrDerand", err)
	}
	// Truncated frames surface the transport error, not ErrDerand.
	if err := sp.SendDerand(frameConn([]byte{derandMagic, 3}), pairs); err == nil || errors.Is(err, ErrDerand) {
		t.Fatalf("truncated header: %v, want transport error", err)
	}
	if err := sp.SendDerand(frameConn([]byte{derandMagic, 3, 0, 0, 0}), pairs); err == nil || errors.Is(err, ErrDerand) {
		t.Fatalf("truncated bits: %v, want transport error", err)
	}
	if sp.Level() != 3 {
		t.Fatalf("refused frames consumed correlations: level %d, want 3", sp.Level())
	}
	// A well-formed frame parses and is answered.
	good := []byte{derandMagic, 3, 0, 0, 0, 0b101}
	if err := sp.SendDerand(frameConn(good), pairs); err != nil {
		t.Fatalf("good frame: %v", err)
	}
	if sp.ein[derandHeaderLen] != 0b101 {
		t.Fatalf("correction bits: %08b, want 101", sp.ein[derandHeaderLen])
	}
}

// FuzzDerandFrame hardens the choice-correction parser the way the
// session frame parsers are hardened: arbitrary bytes must produce
// either a clean parse or a typed/transport error — never a panic or a
// stuck read.
func FuzzDerandFrame(f *testing.F) {
	f.Add([]byte{derandMagic, 3, 0, 0, 0, 0b101}, uint16(3))
	f.Add([]byte{derandMagic, 0, 1, 0, 0}, uint16(256))
	f.Add([]byte{0x00, 3, 0, 0, 0, 0xff}, uint16(3))
	f.Add([]byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, want uint16) {
		n := int(want)%4096 + 1
		sp := bareSender(n)
		err := sp.SendDerand(frameConn(data), make([]Pair, n))
		if err == nil {
			// A clean parse must round-trip: header fields match what
			// the receiver side would have encoded for n.
			if sp.ein[0] != derandMagic {
				t.Fatalf("clean parse with magic 0x%02x", sp.ein[0])
			}
			return
		}
		if !errors.Is(err, ErrDerand) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}

// TestPoolFillAllocFree gates the refill path the way
// TestPoolOnlineAllocFree gates the online one: once a warm-up fill has
// sized the chunk scratch and the banks, and a derandomization has
// opened the slack, a fill of the same size allocates nothing on either
// role — no per-fill scratch, no bank growth.
func TestPoolFillAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	sp, rp, cs, cr := newPoolPair(t, Insecure)
	const n, rounds = extChunk + 100, 3
	pairs := make([]Pair, n)
	choices := NewBitset(n)
	out := make([]label.L, n)
	// A persistent goroutine on the sending end keeps goroutine startup
	// out of the measured rounds; AllocsPerRun counts allocations on all goroutines.
	reqs := make(chan struct{}, rounds+2)
	defer close(reqs)
	errs := make(chan error, rounds+2)
	go func() {
		for range reqs {
			err := sp.Fill(cs, n)
			if err == nil {
				err = sp.SendDerand(cs, pairs)
			}
			errs <- err
		}
	}()
	round := func() {
		reqs <- struct{}{}
		if err := rp.Fill(cr, n); err != nil {
			t.Fatal(err)
		}
		if err := rp.ReceiveDerand(cr, choices, out); err != nil {
			t.Fatal(err)
		}
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	round() // warm-up: sizes the scratch and banks, then opens the slack
	if allocs := testing.AllocsPerRun(rounds, round); allocs > 0 {
		t.Fatalf("steady-state fill allocates %.1f times per fill, want 0", allocs)
	}
}

// BenchmarkPoolFill: one 65 536-correlation refill — the size a
// serve.inputs run consumes — over loopback TCP, both pools in process on
// an Insecure base. ns/op is the wall time of the lockstep fill on both
// ends.
func BenchmarkPoolFill(b *testing.B) {
	const n = 1 << 16
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	cr, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cr.Close()
	cs, ok := <-accepted
	if !ok {
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
	if err != nil {
		b.Fatal(err)
	}
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
	// Consuming every stored correlation leaves nothing live, so the
	// fills that compact move nothing.
	drain := func(p *Pool) { p.head += p.Level() }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		go func() { errc <- sp.Fill(cs, n) }()
		if err := rp.Fill(cr, n); err != nil {
			b.Fatal(err)
		}
		if err := <-errc; err != nil {
			b.Fatal(err)
		}
		drain(sp)
		drain(rp)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/ot")
}

// TestPoolNoReuseAcrossRefills drains and refills across compaction and
// verifies every batch still decodes correctly — a stale or duplicated
// correlation would desynchronize the masks and corrupt the output.
func TestPoolNoReuseAcrossRefills(t *testing.T) {
	sp, rp, cs, cr := newPoolPair(t, Insecure)
	for round := 0; round < 5; round++ {
		fillBoth(t, sp, rp, cs, cr, 50)
		derandBoth(t, sp, rp, cs, cr, 30)
		if sp.Level() != rp.Level() {
			t.Fatalf("round %d: levels diverged %d/%d", round, sp.Level(), rp.Level())
		}
	}
	derandBoth(t, sp, rp, cs, cr, sp.Level())
}

// TestPoolOnlineAllocFree gates the pooled tier's steady-state claim:
// after a warm-up batch sizes the scratch, derandomization allocates
// nothing on either side — the online phase is XORs and wire I/O only —
// for a batch of one piece and one of several.
func TestPoolOnlineAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	for _, n := range []int{256, 2*DerandPiece + 7} {
		t.Run(fmt.Sprint(n), func(t *testing.T) { poolOnlineAllocs(t, n) })
	}
}

func poolOnlineAllocs(t *testing.T, n int) {
	const rounds = 4
	sp, rp, cs, cr := newPoolPair(t, Insecure)
	fillBoth(t, sp, rp, cs, cr, n*(rounds+2))

	pairs := make([]Pair, n)
	choices := NewBitset(n)
	for i := range pairs {
		m0, _ := label.Rand()
		m1, _ := label.Rand()
		pairs[i] = Pair{M0: m0, M1: m1}
		choices.Set(i, i%3 == 0)
	}
	out := make([]label.L, n)
	// A persistent goroutine on the sending end, fed over buffered
	// channels, keeps goroutine startup out of the measured rounds;
	// AllocsPerRun counts allocations on all goroutines, that one's
	// included.
	reqs := make(chan struct{}, rounds+2)
	errs := make(chan error, rounds+2)
	go func() {
		for range reqs {
			errs <- sp.SendDerand(cs, pairs)
		}
	}()
	round := func() {
		reqs <- struct{}{}
		if err := rp.ReceiveDerand(cr, choices, out); err != nil {
			t.Fatal(err)
		}
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	round() // warm-up: grows ein/mout scratch once
	if allocs := testing.AllocsPerRun(rounds, round); allocs > 0 {
		t.Fatalf("steady-state derandomization of %d allocates %.1f times per batch, want 0", n, allocs)
	}
	close(reqs)
}

// TestPoolDecide pins the in-run fill rule both roles apply: a hit
// needs the run's n correlations, and a hit carries a fill of the whole
// deficit it leaves below the target once that reaches
// min(target/2, extChunk); a pool without a target never fills.
func TestPoolDecide(t *testing.T) {
	for _, tc := range []struct {
		target, level, n int
		hit              bool
		fill             int
	}{
		{0, 100, 10, true, 0},                        // no target: today's pools
		{0, 5, 10, false, 0},                         // short: a miss
		{100, 100, 0, false, 0},                      // nothing to transfer
		{100, 100, 10, true, 0},                      // deficit 10 < 50
		{100, 60, 10, true, 50},                      // deficit exactly target/2
		{100, 9, 10, false, 0},                       // misses never fill
		{2, 2, 1, true, 1},                           // min 1
		{1 << 16, 1 << 16, extChunk - 1, true, 0},    // a big target's threshold is extChunk,
		{1 << 16, 1 << 16, extChunk, true, extChunk}, // not target/2
		{1 << 16, 1 << 16, 3 * extChunk, true, 3 * extChunk},
		{1 << 16, 1<<16 - 5, extChunk - 5, true, extChunk}, // the whole deficit, not the run's n
	} {
		p := &Pool{recv: &extReceiver{}, rl: make([]label.L, tc.level), target: tc.target}
		hit, fill := p.Decide(tc.n)
		if hit != tc.hit || fill != tc.fill {
			t.Errorf("target %d level %d n %d: Decide = %v, %d; want %v, %d", tc.target, tc.level, tc.n, hit, fill, tc.hit, tc.fill)
		}
	}
	var nilPool *Pool
	if hit, fill := nilPool.Decide(1); hit || fill != 0 {
		t.Errorf("nil pool: Decide = %v, %d; want a miss", hit, fill)
	}
}

// TestFillBytesMatchesFill: FillBytes is exactly what a fill moves on
// the wire, for sizes on and off the byte and chunk boundaries.
func TestFillBytesMatchesFill(t *testing.T) {
	sp, rp, cs, cr := newPoolPair(t, Insecure)
	for _, n := range []int{1, 8, 13, extChunk, extChunk + 3, 2*extChunk + 64} {
		var w countWriter
		errc := make(chan error, 1)
		go func() { errc <- sp.Fill(cs, n) }()
		if err := rp.Fill(struct {
			io.Reader
			io.Writer
		}{cr, io.MultiWriter(cr, &w)}, n); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if got := FillBytes(n); got != w.n {
			t.Errorf("FillBytes(%d) = %d, the fill wrote %d", n, got, w.n)
		}
	}
	if FillBytes(0) != 0 || FillBytes(8) != 16*8 {
		t.Errorf("FillBytes(0), FillBytes(8) = %d, %d; want 0, 128", FillBytes(0), FillBytes(8))
	}
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// TestPoolFillMovesBankRarely: a pool topped back up to its target
// after every batch, as in-run fills do, keeps room for twice its
// target and compacts (head back at 0) only when that room runs out:
// with batches of a quarter of the target, the banks take four fills
// past the first and compact on the fifth (the sender's banks are
// counted; each end compacts on its own capacity, which the wire never
// sees). Every batch still derandomizes correctly and the two ends stay
// in lockstep.
func TestPoolFillMovesBankRarely(t *testing.T) {
	const target, m = 64, 16
	sp, rp, cs, cr := newPoolPair(t, Insecure)
	fillBoth(t, sp, rp, cs, cr, target)
	var compacted []int
	for batch := 1; batch <= 12; batch++ {
		derandBoth(t, sp, rp, cs, cr, m)
		fillBoth(t, sp, rp, cs, cr, m)
		if sp.Level() != target || rp.Level() != target {
			t.Fatalf("batch %d: levels %d/%d, want %d", batch, sp.Level(), rp.Level(), target)
		}
		if sp.head == 0 {
			compacted = append(compacted, batch)
		}
	}
	if fmt.Sprint(compacted) != "[5 10]" {
		t.Fatalf("compacted at batches %v, want [5 10]", compacted)
	}
}
