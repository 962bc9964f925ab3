package ot

import (
	"crypto/aes"
	"encoding/binary"
	"math/rand"
	"net"
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
