package ot

import (
	"crypto/aes"
	"crypto/elliptic"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net"
	"strings"
	"testing"

	"haac/internal/label"
)

func runOT(t *testing.T, proto Protocol, n int, seed int64) ([]Pair, []bool, []label.L) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	src := label.NewSource(uint64(seed))
	pairs := make([]Pair, n)
	choices := make([]bool, n)
	for i := range pairs {
		pairs[i] = Pair{M0: src.Next(), M1: src.Next()}
		choices[i] = rng.Intn(2) == 1
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() { errc <- Send(a, proto, pairs) }()
	got, err := Receive(b, proto, choices)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	return pairs, choices, got
}

func TestInsecureOT(t *testing.T) {
	pairs, choices, got := runOT(t, Insecure, 64, 1)
	for i := range got {
		want := pairs[i].M0
		if choices[i] {
			want = pairs[i].M1
		}
		if got[i] != want {
			t.Fatalf("transfer %d: wrong message", i)
		}
	}
}

func TestDHOTCorrectness(t *testing.T) {
	pairs, choices, got := runOT(t, DH, 16, 2)
	for i := range got {
		want := pairs[i].M0
		other := pairs[i].M1
		if choices[i] {
			want, other = other, want
		}
		if got[i] != want {
			t.Fatalf("transfer %d: wrong message", i)
		}
		if got[i] == other {
			t.Fatalf("transfer %d: received the unchosen message", i)
		}
	}
}

func TestDHOTDistinctKeysPerIndex(t *testing.T) {
	// Identical pairs at different indices must produce different
	// ciphertexts (the kdf binds the transfer index).
	src := label.NewSource(3)
	m := Pair{M0: src.Next(), M1: src.Next()}
	pairs := []Pair{m, m}
	choices := []bool{false, false}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() { errc <- Send(a, DH, pairs) }()
	got, err := Receive(b, DH, choices)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got[0] != m.M0 || got[1] != m.M0 {
		t.Fatal("decryption failed")
	}
}

func TestUnknownProtocolRejected(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if err := Send(a, Protocol(99), nil); err == nil {
		t.Fatal("unknown protocol accepted by Send")
	}
	if _, err := Receive(b, Protocol(99), nil); err == nil {
		t.Fatal("unknown protocol accepted by Receive")
	}
}

func TestIKNPCorrectness(t *testing.T) {
	pairs, choices, got := runOT(t, IKNP, 777, 4)
	for i := range got {
		want, other := pairs[i].M0, pairs[i].M1
		if choices[i] {
			want, other = other, want
		}
		if got[i] != want {
			t.Fatalf("transfer %d: wrong message", i)
		}
		if got[i] == other {
			t.Fatalf("transfer %d: received the unchosen message", i)
		}
	}
}

func TestIKNPNonMultipleOfEight(t *testing.T) {
	// Batch sizes that don't fill whole bytes exercise the padding.
	for _, n := range []int{1, 7, 9, 130} {
		pairs, choices, got := runOT(t, IKNP, n, int64(100+n))
		for i := range got {
			want := pairs[i].M0
			if choices[i] {
				want = pairs[i].M1
			}
			if got[i] != want {
				t.Fatalf("n=%d transfer %d wrong", n, i)
			}
		}
	}
}

func TestIKNPEmptyBatch(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() { errc <- Send(a, IKNP, nil) }()
	out, err := Receive(b, IKNP, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatal("non-empty result for empty batch")
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestPRGDeterministicAndSeedSeparated(t *testing.T) {
	expand := func(seed label.L, words int) []uint64 {
		var p prgStream
		p.init(seed)
		out := make([]uint64, words)
		p.expand(out)
		return out
	}
	a := expand(label.L{Lo: 1, Hi: 2}, 13)
	b := expand(label.L{Lo: 1, Hi: 2}, 13)
	c := expand(label.L{Lo: 1, Hi: 3}, 13)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("PRG not deterministic")
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("PRG ignores seed")
	}
}

// TestPRGIsAESCTR pins the column PRG to its definition — AES-128-CTR
// under the seed, little-endian counter in the low half of the block —
// against crypto/aes, so both ends of an extension agree whatever tier
// internal/aes128 runs on (including odd word counts and calls longer
// than one cipher batch).
func TestPRGIsAESCTR(t *testing.T) {
	seed := label.L{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
	var key [16]byte
	seed.Put(key[:])
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	var p prgStream
	p.init(seed)
	ctr := uint64(0)
	for _, words := range []int{1, 2, 13, 16, 40} {
		got := make([]uint64, words)
		p.expand(got)
		for i := 0; i < words; i += 2 {
			var in, out [16]byte
			binary.LittleEndian.PutUint64(in[:8], ctr)
			ctr++
			blk.Encrypt(out[:], in[:])
			if w := binary.LittleEndian.Uint64(out[:8]); got[i] != w {
				t.Fatalf("expand(%d) word %d = %#x, AES-CTR %#x", words, i, got[i], w)
			}
			if i+1 < words {
				if w := binary.LittleEndian.Uint64(out[8:]); got[i+1] != w {
					t.Fatalf("expand(%d) word %d = %#x, AES-CTR %#x", words, i+1, got[i+1], w)
				}
			}
		}
	}
}

func TestPRGStreamContinues(t *testing.T) {
	// Two expand calls must continue one stream: chunked extension
	// relies on per-column counter state persisting across chunks.
	var whole, split prgStream
	whole.init(label.L{Lo: 5, Hi: 6})
	split.init(label.L{Lo: 5, Hi: 6})
	w := make([]uint64, 32)
	whole.expand(w)
	s := make([]uint64, 32)
	split.expand(s[:20]) // chunk expansions are block-aligned (even words)
	split.expand(s[20:])
	for i := range w {
		if w[i] != s[i] {
			t.Fatalf("split PRG stream diverges at word %d", i)
		}
	}
}

func TestRowHashBindsIndex(t *testing.T) {
	var r row
	r[0] = 42
	if rowHash(1, r) == rowHash(2, r) {
		t.Fatal("row hash ignores transfer index")
	}
	var r2 row
	r2[0] = 43
	if rowHash(1, r) == rowHash(1, r2) {
		t.Fatal("row hash ignores row")
	}
}

func TestCRHash4MatchesScalar(t *testing.T) {
	rows := []row{{1, 2}, {3, 4}, {0xffffffffffffffff, 0}, {7, 0x8000000000000000}}
	l0, l1, l2, l3 := crHasher.Hash4(
		rowLabel(rows[0]), rowLabel(rows[1]), rowLabel(rows[2]), rowLabel(rows[3]),
		10, 11, 12, 13)
	got := []label.L{l0, l1, l2, l3}
	for i, r := range rows {
		if want := rowHash(uint64(10+i), r); got[i] != want {
			t.Fatalf("Hash4 lane %d differs from scalar row hash", i)
		}
	}
}

// --- DH OT: the textbook schedule as a reference peer ---

// legacyDHSend is the sender as first written: k1 = a(B−A) by a second
// full scalar multiplication per transfer. Kept as the reference peer
// that proves dhSend/dhReceive put the same bytes on the wire.
func legacyDHSend(conn io.ReadWriter, pairs []Pair) error {
	curve := elliptic.P256()
	a, err := crand.Int(crand.Reader, curve.Params().N)
	if err != nil {
		return fmt.Errorf("ot: sampling scalar: %w", err)
	}
	ax, ay := curve.ScalarBaseMult(a.Bytes())
	if _, err := conn.Write(elliptic.Marshal(curve, ax, ay)); err != nil {
		return fmt.Errorf("ot: sending A: %w", err)
	}
	// Negated A for computing B − A.
	nay := new(big.Int).Sub(curve.Params().P, ay)

	all := make([]byte, pointSize*len(pairs))
	if _, err := io.ReadFull(conn, all); err != nil {
		return fmt.Errorf("ot: reading B points: %w", err)
	}
	out := make([]byte, 2*label.Size*len(pairs))
	for i, p := range pairs {
		ptBuf := all[i*pointSize : (i+1)*pointSize]
		bx, by := elliptic.Unmarshal(curve, ptBuf)
		if bx == nil {
			return fmt.Errorf("ot: invalid point B[%d]", i)
		}
		k0x, k0y := curve.ScalarMult(bx, by, a.Bytes())
		dx, dy := curve.Add(bx, by, ax, nay) // B − A
		k1x, k1y := curve.ScalarMult(dx, dy, a.Bytes())

		e0 := p.M0.Xor(legacyKDF(curve, k0x, k0y, uint64(i)))
		e1 := p.M1.Xor(legacyKDF(curve, k1x, k1y, uint64(i)))
		msg := out[i*2*label.Size : (i+1)*2*label.Size]
		e0.Put(msg[0:16])
		e1.Put(msg[16:32])
	}
	if _, err := conn.Write(out); err != nil {
		return fmt.Errorf("ot: sending ciphertexts: %w", err)
	}
	return nil
}

// legacyDHReceive is the receiver as first written: it computes each bA
// only after reading that transfer's ciphertexts.
func legacyDHReceive(conn io.ReadWriter, choices Bitset) ([]label.L, error) {
	curve := elliptic.P256()
	ptBuf := make([]byte, pointSize)
	if _, err := io.ReadFull(conn, ptBuf); err != nil {
		return nil, fmt.Errorf("ot: reading A: %w", err)
	}
	ax, ay := elliptic.Unmarshal(curve, ptBuf)
	if ax == nil {
		return nil, fmt.Errorf("ot: invalid point A")
	}

	n := choices.Len()
	type state struct{ b *big.Int }
	states := make([]state, n)
	bPoints := make([]byte, pointSize*n)
	for i := range states {
		b, err := crand.Int(crand.Reader, curve.Params().N)
		if err != nil {
			return nil, fmt.Errorf("ot: sampling scalar: %w", err)
		}
		states[i].b = b
		bx, by := curve.ScalarBaseMult(b.Bytes())
		if choices.Bit(i) == 1 {
			bx, by = curve.Add(bx, by, ax, ay)
		}
		copy(bPoints[i*pointSize:], elliptic.Marshal(curve, bx, by))
	}
	if _, err := conn.Write(bPoints); err != nil {
		return nil, fmt.Errorf("ot: sending B points: %w", err)
	}

	out := make([]label.L, n)
	msg := make([]byte, 2*label.Size)
	for i := range out {
		if _, err := io.ReadFull(conn, msg); err != nil {
			return nil, fmt.Errorf("ot: reading ciphertexts %d: %w", i, err)
		}
		kx, ky := curve.ScalarMult(ax, ay, states[i].b.Bytes())
		k := legacyKDF(curve, kx, ky, uint64(i))
		if choices.Bit(i) == 1 {
			out[i] = label.FromBytes(msg[16:32]).Xor(k)
		} else {
			out[i] = label.FromBytes(msg[0:16]).Xor(k)
		}
	}
	return out, nil
}

// legacyKDF is kdf as first written, through elliptic.Marshal and a
// streaming SHA-256.
func legacyKDF(curve elliptic.Curve, x, y *big.Int, idx uint64) label.L {
	h := sha256.New()
	h.Write(elliptic.Marshal(curve, x, y))
	var ib [8]byte
	for i := 0; i < 8; i++ {
		ib[i] = byte(idx >> uint(8*i))
	}
	h.Write(ib[:])
	sum := h.Sum(nil)
	return label.FromBytes(sum[:16])
}

type (
	dhSendFunc    func(io.ReadWriter, []Pair) error
	dhReceiveFunc func(io.ReadWriter, Bitset) ([]label.L, error)
)

// pipeTransfer runs send and recv against each other over net.Pipe and
// returns what the receiver got.
func pipeTransfer(tb testing.TB, send dhSendFunc, recv dhReceiveFunc, pairs []Pair, choices Bitset) []label.L {
	tb.Helper()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() { errc <- send(a, pairs) }()
	got, err := recv(b, choices)
	if err != nil {
		tb.Fatal(err)
	}
	if err := <-errc; err != nil {
		tb.Fatal(err)
	}
	return got
}

func testPairs(n int, seed uint64) []Pair {
	src := label.NewSource(seed)
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{M0: src.Next(), M1: src.Next()}
	}
	return pairs
}

// TestDHLegacyPeerInterop is the byte-identity proof of the DH schedule:
// each side interoperates with the textbook peer, so both send the same
// points and derive the same keys.
func TestDHLegacyPeerInterop(t *testing.T) {
	peers := []struct {
		name string
		send dhSendFunc
		recv dhReceiveFunc
	}{
		{"new-new", dhSend, dhReceive},
		{"legacy-sender", legacyDHSend, dhReceive},
		{"legacy-receiver", dhSend, legacyDHReceive},
	}
	choiceOf := map[string]func(i int) bool{
		"c=0":   func(int) bool { return false },
		"c=1":   func(int) bool { return true },
		"mixed": func(i int) bool { return i%3 == 0 },
	}
	for _, p := range peers {
		for _, n := range []int{1, 16, 128} {
			for name, c := range choiceOf {
				t.Run(fmt.Sprintf("%s/n=%d/%s", p.name, n, name), func(t *testing.T) {
					pairs := testPairs(n, uint64(n))
					choices := NewBitset(n)
					for i := 0; i < n; i++ {
						choices.Set(i, c(i))
					}
					checkTransfers(t, pairs, choices, pipeTransfer(t, p.send, p.recv, pairs, choices))
				})
			}
		}
	}
}

// TestDHKeyAlgebra: the sender's k1 = aB − aA is the point a(B − A), for
// B of either choice and for the degenerate B = A.
func TestDHKeyAlgebra(t *testing.T) {
	curve := elliptic.P256()
	params := curve.Params()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 16; trial++ {
		a := new(big.Int).Rand(rng, params.N).Bytes()
		ax, ay := curve.ScalarBaseMult(a)
		bx, by := curve.ScalarBaseMult(new(big.Int).Rand(rng, params.N).Bytes())
		switch trial % 4 {
		case 1:
			bx, by = curve.Add(bx, by, ax, ay) // choice 1: B = bG + A
		case 3:
			bx, by = ax, ay // B − A is the point at infinity
		}
		nay := new(big.Int).Sub(params.P, ay)
		dx, dy := curve.Add(bx, by, ax, nay)
		oldX, oldY := curve.ScalarMult(dx, dy, a)

		aax, aay := curve.ScalarMult(ax, ay, a)
		k0x, k0y := curve.ScalarMult(bx, by, a)
		newX, newY := curve.Add(k0x, k0y, aax, new(big.Int).Sub(params.P, aay))

		if old, new := elliptic.Marshal(curve, oldX, oldY), elliptic.Marshal(curve, newX, newY); string(old) != string(new) {
			t.Fatalf("trial %d: a(B−A) = %x, aB − aA = %x", trial, old, new)
		}
	}
}

// TestKDFMatchesMarshalForm pins the stack-built kdf input to the
// elliptic.Marshal encoding, including points whose x or y has a leading
// zero byte (found by scanning k·G, so the test is deterministic), and
// checks that kdf does not allocate.
func TestKDFMatchesMarshalForm(t *testing.T) {
	curve := elliptic.P256()
	type point struct {
		name string
		x, y *big.Int
	}
	pts := []point{{"infinity", new(big.Int), new(big.Int)}}
	shortX, shortY := false, false
	for k := int64(1); k < 1<<16 && !(shortX && shortY); k++ {
		x, y := curve.ScalarBaseMult(big.NewInt(k).Bytes())
		switch {
		case k <= 2:
			pts = append(pts, point{fmt.Sprintf("%d·G", k), x, y})
		case !shortX && x.BitLen() <= 8*(coordSize-1):
			pts = append(pts, point{fmt.Sprintf("%d·G (short x)", k), x, y})
			shortX = true
		case !shortY && y.BitLen() <= 8*(coordSize-1):
			pts = append(pts, point{fmt.Sprintf("%d·G (short y)", k), x, y})
			shortY = true
		}
	}
	if !shortX || !shortY {
		t.Fatal("no point with a leading zero byte found")
	}
	for _, p := range pts {
		for _, idx := range []uint64{0, 1, 127, 1<<63 | 0x0102030405} {
			if got, want := kdf(p.x, p.y, idx), legacyKDF(curve, p.x, p.y, idx); got != want {
				t.Fatalf("%s, idx %d: kdf %v, Marshal form %v", p.name, idx, got, want)
			}
		}
	}
	if !raceEnabled {
		p := pts[len(pts)-1]
		if allocs := testing.AllocsPerRun(100, func() { kdf(p.x, p.y, 9) }); allocs != 0 {
			t.Fatalf("kdf allocates %.0f times per call", allocs)
		}
	}
}

// --- DH OT against hostile peers ---

// testPoint returns k·G in the uncompressed encoding.
func testPoint(k int64) []byte {
	curve := elliptic.P256()
	x, y := curve.ScalarBaseMult(big.NewInt(k).Bytes())
	return elliptic.Marshal(curve, x, y)
}

// invalidPoints are 65-byte strings no P-256 peer may accept as a point.
func invalidPoints() map[string][]byte {
	prefix := testPoint(5)
	prefix[0] = 0x05
	compressed := testPoint(5)
	compressed[0] = 0x02
	offCurve := testPoint(5)
	offCurve[pointSize-1] ^= 1
	infinity := make([]byte, pointSize)
	infinity[0] = 4
	return map[string][]byte{
		"wrong-prefix": prefix,
		"compressed":   compressed,
		"off-curve":    offCurve,
		"infinity":     infinity,
		"zeros":        make([]byte, pointSize),
	}
}

func TestDHReceiverRejectsInvalidA(t *testing.T) {
	for name, bad := range invalidPoints() {
		t.Run(name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			errc := make(chan error, 1)
			go func() {
				_, err := a.Write(bad)
				errc <- err
			}()
			_, err := dhReceive(b, NewBitset(4))
			if err == nil || !strings.Contains(err.Error(), "invalid point A") {
				t.Fatalf("receiver accepted A = %x: err %v", bad, err)
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDHSenderRejectsInvalidB(t *testing.T) {
	const n = 4
	for name, bad := range invalidPoints() {
		for _, at := range []int{0, n - 1} {
			t.Run(fmt.Sprintf("%s/B[%d]", name, at), func(t *testing.T) {
				a, b := net.Pipe()
				defer a.Close()
				defer b.Close()
				errc := make(chan error, 1)
				go func() {
					if _, err := io.ReadFull(b, make([]byte, pointSize)); err != nil {
						errc <- err
						return
					}
					bPoints := make([]byte, 0, n*pointSize)
					for i := 0; i < n; i++ {
						if i == at {
							bPoints = append(bPoints, bad...)
						} else {
							bPoints = append(bPoints, testPoint(int64(i+2))...)
						}
					}
					_, err := b.Write(bPoints)
					errc <- err
				}()
				err := dhSend(a, testPairs(n, 1))
				if want := fmt.Sprintf("invalid point B[%d]", at); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("sender error %v, want one naming %q", err, want)
				}
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDHReceiverSenderClosesAfterB: a sender that reads the B points and
// hangs up leaves the receiver with an error, not a blocked read.
func TestDHReceiverSenderClosesAfterB(t *testing.T) {
	const n = 16
	a, b := net.Pipe()
	defer b.Close()
	errc := make(chan error, 1)
	go func() {
		defer a.Close()
		if _, err := a.Write(testPoint(3)); err != nil {
			errc <- err
			return
		}
		_, err := io.ReadFull(a, make([]byte, n*pointSize))
		errc <- err
	}()
	if _, err := dhReceive(b, NewBitset(n)); err == nil {
		t.Fatal("receiver returned no error after the sender hung up")
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBaseOT: one batch of kappa DH transfers over net.Pipe, both
// parties in process — the base-OT cost an on-demand IKNP pays.
func BenchmarkBaseOT(b *testing.B) {
	pairs := testPairs(kappa, 1)
	choices := NewBitset(kappa)
	for i := 0; i < kappa; i += 2 {
		choices.Set(i, true)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pipeTransfer(b, dhSend, dhReceive, pairs, choices)
	}
}

// BenchmarkIKNPSmall: IKNP at kappa transfers, base OTs included — the
// OT of one on-demand run with a 128-bit evaluator input.
func BenchmarkIKNPSmall(b *testing.B) {
	pairs := testPairs(kappa, 2)
	choices := NewBitset(kappa)
	for i := 0; i < kappa; i += 3 {
		choices.Set(i, true)
	}
	send := func(c io.ReadWriter, p []Pair) error { return iknpSend(c, DH, p) }
	recv := func(c io.ReadWriter, ch Bitset) ([]label.L, error) { return iknpReceive(c, DH, ch) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pipeTransfer(b, send, recv, pairs, choices)
	}
}
