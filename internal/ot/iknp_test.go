package ot

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"

	"haac/internal/label"
)

// TestTranspose64SingleBits: bit c of word r must land at bit r of word c.
func TestTranspose64SingleBits(t *testing.T) {
	for _, pos := range [][2]uint{{0, 0}, {0, 1}, {1, 0}, {63, 63}, {0, 63}, {63, 0}, {17, 42}, {33, 9}} {
		r, c := pos[0], pos[1]
		var a [64]uint64
		a[r] = 1 << c
		transpose64(&a)
		for w := uint(0); w < 64; w++ {
			want := uint64(0)
			if w == c {
				want = 1 << r
			}
			if a[w] != want {
				t.Fatalf("bit (%d,%d): word %d = %#x, want %#x", r, c, w, a[w], want)
			}
		}
	}
}

// TestTranspose64Involution: transposing twice is the identity.
func TestTranspose64Involution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a, orig [64]uint64
	for i := range a {
		a[i] = rng.Uint64()
		orig[i] = a[i]
	}
	transpose64(&a)
	transpose64(&a)
	if a != orig {
		t.Fatal("transpose64 applied twice is not the identity")
	}
}

// TestTransposeColumnsMatchesBitLoop compares the blocked transpose to a
// naive per-bit flip over multi-word chunks: a few words, a whole
// extChunk (256 words), an odd 129, and the lane tails of the vector
// forms — fewer words than a register's four or eight lanes, and one
// past or short of a multiple of them.
func TestTransposeColumnsMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, colWords := range []int{3, extChunk / 64, 129, 1, 2, 4, 5, 7, 8, 9, 12, 17, 257} {
		cols := make([]uint64, kappa*colWords)
		for i := range cols {
			cols[i] = rng.Uint64()
		}
		rows := make([]row, colWords*64)
		transposeColumns(rows, cols, colWords)
		for j := range rows {
			var want row
			for i := 0; i < kappa; i++ {
				bit := cols[i*colWords+j/64] >> (uint(j) % 64) & 1
				want[i/64] |= bit << (uint(i) % 64)
			}
			if rows[j] != want {
				t.Fatalf("colWords %d, row %d: got %x, want %x", colWords, j, rows[j], want)
			}
		}
	}
}

// Set sets choice j to v. Tests build choice vectors bit by bit with
// it; the protocol packs whole []bool vectors with BitsetFromBools and
// CopyBools.
func (b Bitset) Set(j int, v bool) {
	if v {
		b.words[j>>6] |= 1 << (uint(j) & 63)
	} else {
		b.words[j>>6] &^= 1 << (uint(j) & 63)
	}
}

// word returns the w-th 64-choice word (zero beyond Len).
func (b Bitset) word(w int) uint64 {
	if w < len(b.words) {
		return b.words[w]
	}
	return 0
}

func TestBitsetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		bools := make([]bool, n)
		for i := range bools {
			bools[i] = rng.Intn(2) == 1
		}
		b := BitsetFromBools(bools)
		if b.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, b.Len())
		}
		for i := range bools {
			if (b.Bit(i) == 1) != bools[i] {
				t.Fatalf("n=%d: bit %d mismatch", n, i)
			}
		}
	}
	b := NewBitset(130)
	b.Set(129, true)
	if b.Bit(129) != 1 || b.Bit(128) != 0 {
		t.Fatal("Set/Bit mismatch")
	}
	b.Set(129, false)
	if b.Bit(129) != 0 {
		t.Fatal("clearing a bit failed")
	}
	if b.word(100) != 0 {
		t.Fatal("out-of-range word must read as zero")
	}
}

// runOTBitset mirrors runOT with the packed-choice receiver entry point.
func runOTBitset(t *testing.T, proto Protocol, n int, seed int64) ([]Pair, Bitset, []label.L) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pairs := testPairs(n, uint64(seed))
	choices := NewBitset(n)
	for i := range pairs {
		choices.Set(i, rng.Intn(2) == 1)
	}
	send := func(c io.ReadWriter, p []Pair) error { return Send(c, proto, p) }
	recv := func(c io.ReadWriter, ch Bitset) ([]label.L, error) { return ReceiveBitset(c, proto, ch) }
	return pairs, choices, pipeTransfer(t, send, recv, pairs, choices)
}

func checkTransfers(t *testing.T, pairs []Pair, choices Bitset, got []label.L) {
	t.Helper()
	if len(got) != len(pairs) {
		t.Fatalf("got %d transfers, want %d", len(got), len(pairs))
	}
	for i := range got {
		want, other := pairs[i].M0, pairs[i].M1
		if choices.Bit(i) == 1 {
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

// TestIKNPChunkBoundaries round-trips batch sizes straddling word and
// chunk boundaries of the streaming extension.
func TestIKNPChunkBoundaries(t *testing.T) {
	sizes := []int{63, 64, 65, 8191, extChunk - 1, extChunk, extChunk + 1}
	for _, n := range sizes {
		pairs, choices, got := runOTBitset(t, IKNP, n, int64(200+n))
		checkTransfers(t, pairs, choices, got)
	}
}

// TestIKNPHammInputSize round-trips the full 40960-choice batch the
// package docs name (Hamm's evaluator input size): 2.5 chunks.
func TestIKNPHammInputSize(t *testing.T) {
	const n = 40960
	pairs, choices, got := runOTBitset(t, IKNP, n, 9)
	checkTransfers(t, pairs, choices, got)
}

// TestIKNPBitsetMatchesBools: a choice vector packed from []bool by
// BitsetFromBools and one built bit by bit give the same transfers.
func TestIKNPBitsetMatchesBools(t *testing.T) {
	const n = 777
	pairs, choices, got := runOT(t, IKNP, n, 4)
	pairsB, choicesB, gotB := runOTBitset(t, IKNP, n, 4)
	for i := range pairs {
		if pairs[i] != pairsB[i] || choices[i] != (choicesB.Bit(i) == 1) {
			t.Fatalf("test harness drift at transfer %d", i)
		}
		if got[i] != gotB[i] {
			t.Fatalf("transfer %d: bitset path returned a different label", i)
		}
	}
}

// TestIKNPAllocsIndependentOfBatch: steady-state extension cost is O(1)
// allocations per chunk — growing the batch 4x must not grow allocations
// proportionally (per-row allocations would add tens of thousands).
func TestIKNPAllocsIndependentOfBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	measure := func(n int) float64 {
		pairs := make([]Pair, n)
		src := label.NewSource(uint64(n))
		for i := range pairs {
			pairs[i] = Pair{M0: src.Next(), M1: src.Next()}
		}
		choices := NewBitset(n)
		for i := 0; i < n; i += 3 {
			choices.Set(i, true)
		}
		// Insecure base OTs keep the baseline deterministic; AllocsPerRun
		// counts allocations on all goroutines, including the sender's.
		return testing.AllocsPerRun(3, func() {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			errc := make(chan error, 1)
			go func() { errc <- iknpSend(a, Insecure, pairs) }()
			if _, err := iknpReceive(b, Insecure, choices); err != nil {
				t.Fatal(err)
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(extChunk)     // 1 chunk
	large := measure(4 * extChunk) // 4 chunks
	// 3 extra chunks may add a bounded number of allocations (pipe writes
	// etc.) but nothing per transfer: 49152 extra transfers would add
	// ~100k allocations at even 2 allocs/transfer.
	if large > small+1000 {
		t.Fatalf("allocations scale with batch size: %d OTs -> %.0f allocs, %d OTs -> %.0f allocs",
			extChunk, small, 4*extChunk, large)
	}
}

// TestChunkHashMatchesFixedKeyHasher pins the chunk-wide row hash to
// gc.FixedKeyHasher under crKey, row by row and at tweaks that carry
// into the high bits.
func TestChunkHashMatchesFixedKeyHasher(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := make([]row, 67)
	for j := range rows {
		rows[j] = row{rng.Uint64(), rng.Uint64()}
	}
	rows[0] = row{}
	rows[1] = row{1 << 63, 1 << 63}
	s := row{rng.Uint64(), rng.Uint64()}
	for _, t0 := range []uint64{0, 5, 1<<63 - 3} {
		got := make([]label.L, len(rows))
		hashRows(got, rows, t0)
		pairs := make([]Pair, len(rows))
		hashRowPairs(pairs, rows, s, t0)
		for j, r := range rows {
			rs := r
			rs.xor(s)
			tj := t0 + uint64(j)
			if want := rowHash(tj, r); got[j] != want || pairs[j].M0 != want {
				t.Fatalf("tweak %d, row %d: H(q) differs from the fixed-key hasher", t0, j)
			}
			if want := rowHash(tj, rs); pairs[j].M1 != want {
				t.Fatalf("tweak %d, row %d: H(q^s) differs from the fixed-key hasher", t0, j)
			}
		}
	}
}

// extendSizes straddle the word, chunk and multi-chunk boundaries of the
// chunk cores.
var extendSizes = []int{1, 63, 64, 65, extChunk - 1, extChunk, extChunk + 1, 3*extChunk + 5}

// TestExtendLegacyPeerInterop is the byte-identity proof of the chunk
// cores: each end of an on-demand extension and of a pool fill
// interoperates with the per-column reference peer in legacy_test.go.
// A core that hashed the wrong buffer, skipped the XOR-back or took the
// wrong stream would bank correlations the reference does not share,
// and the derandomized transfers would come out wrong.
func TestExtendLegacyPeerInterop(t *testing.T) {
	iknp := []struct {
		name string
		send dhSendFunc
		recv dhReceiveFunc
	}{
		{"legacy-receiver", func(c io.ReadWriter, p []Pair) error { return iknpSend(c, Insecure, p) },
			func(c io.ReadWriter, ch Bitset) ([]label.L, error) { return legacyIKNPReceive(c, Insecure, ch) }},
		{"legacy-sender", func(c io.ReadWriter, p []Pair) error { return legacyIKNPSend(c, Insecure, p) },
			func(c io.ReadWriter, ch Bitset) ([]label.L, error) { return iknpReceive(c, Insecure, ch) }},
	}
	for _, n := range extendSizes {
		for _, p := range iknp {
			t.Run(fmt.Sprintf("iknp/%s/n=%d", p.name, n), func(t *testing.T) {
				pairs := testPairs(n, uint64(n))
				choices := NewBitset(n)
				rng := rand.New(rand.NewSource(int64(n)))
				for i := 0; i < n; i++ {
					choices.Set(i, rng.Intn(2) == 1)
				}
				checkTransfers(t, pairs, choices, pipeTransfer(t, p.send, p.recv, pairs, choices))
			})
		}
		for _, legacySender := range []bool{false, true} {
			name := "legacy-receiver"
			if legacySender {
				name = "legacy-sender"
			}
			t.Run(fmt.Sprintf("pool/%s/n=%d", name, n), func(t *testing.T) {
				sp, rp, cs, cr := legacyPoolPair(t, legacySender, n)
				checkMasks(t, sp.masks)
				derandBoth(t, sp, rp, cs, cr, sp.Level())
			})
		}
	}
}

// legacyPoolPair sets up a pool pair with one end played by the legacy
// reference, fills n and then 7 more correlations (so the transfer index
// and the PRG streams run on across fills), and returns both banks as
// Pools ready to derandomize.
func legacyPoolPair(t *testing.T, legacySender bool, n int) (*Pool, *Pool, net.Conn, net.Conn) {
	t.Helper()
	cs, cr := net.Pipe()
	t.Cleanup(func() { cs.Close(); cr.Close() })
	type end struct {
		pool   *Pool
		legacy *legacyPool
	}
	run := func(c net.Conn, sender, legacy bool) (end, error) {
		var e end
		var err error
		switch {
		case legacy && sender:
			e.legacy, err = newLegacySenderPool(c, Insecure)
		case legacy:
			e.legacy, err = newLegacyReceiverPool(c, Insecure)
		case sender:
			e.pool, err = NewSenderPool(c, Insecure)
		default:
			e.pool, err = NewReceiverPool(c, Insecure)
		}
		for _, k := range []int{n, 7} {
			if err != nil {
				break
			}
			if legacy {
				err = e.legacy.fill(c, k)
			} else {
				err = e.pool.Fill(c, k)
			}
		}
		if err == nil && legacy {
			e.pool = e.legacy.bank()
		}
		return e, err
	}
	type result struct {
		e   end
		err error
	}
	sres := make(chan result, 1)
	go func() {
		e, err := run(cs, true, legacySender)
		sres <- result{e, err}
	}()
	r, err := run(cr, false, !legacySender)
	if err != nil {
		t.Fatalf("receiver: %v", err)
	}
	s := <-sres
	if s.err != nil {
		t.Fatalf("sender: %v", s.err)
	}
	if s.e.pool.Level() != n+7 || r.pool.Level() != n+7 {
		t.Fatalf("levels %d/%d, want %d", s.e.pool.Level(), r.pool.Level(), n+7)
	}
	return s.e.pool, r.pool, cs, cr
}

// checkMasks asserts a sender bank holds two distinct masks per transfer
// whose difference is not one constant: a hash that encrypted the wrong
// buffer banks r0 ^ r1 = const for every transfer, which a pair of equally
// broken ends would still agree on.
func checkMasks(t *testing.T, masks []Pair) {
	t.Helper()
	diffs := make(map[label.L]bool)
	for j, m := range masks {
		if m.M0 == m.M1 {
			t.Fatalf("transfer %d: r0 == r1", j)
		}
		diffs[m.M0.Xor(m.M1)] = true
	}
	if len(masks) > 1 && len(diffs) == 1 {
		t.Fatalf("r0 ^ r1 is the same for all %d transfers", len(masks))
	}
}

// FuzzExtendChunk runs the on-demand extension between the chunk cores
// and the legacy reference, both ways, at fuzzer-chosen sizes up to two
// chunks and a ragged tail and at fuzzer-chosen choices.
func FuzzExtendChunk(f *testing.F) {
	f.Add(uint16(1), int64(1))
	f.Add(uint16(64), int64(2))
	f.Add(uint16(extChunk), int64(3))
	f.Add(uint16(2*extChunk+69), int64(4))
	f.Fuzz(func(t *testing.T, size uint16, seed int64) {
		n := int(size)%(2*extChunk+70) + 1
		rng := rand.New(rand.NewSource(seed))
		pairs := testPairs(n, uint64(seed))
		choices := NewBitset(n)
		for i := 0; i < n; i++ {
			choices.Set(i, rng.Intn(2) == 1)
		}
		send := func(c io.ReadWriter, p []Pair) error { return iknpSend(c, Insecure, p) }
		recv := func(c io.ReadWriter, ch Bitset) ([]label.L, error) { return iknpReceive(c, Insecure, ch) }
		legacySend := func(c io.ReadWriter, p []Pair) error { return legacyIKNPSend(c, Insecure, p) }
		legacyRecv := func(c io.ReadWriter, ch Bitset) ([]label.L, error) { return legacyIKNPReceive(c, Insecure, ch) }
		checkTransfers(t, pairs, choices, pipeTransfer(t, send, legacyRecv, pairs, choices))
		checkTransfers(t, pairs, choices, pipeTransfer(t, legacySend, recv, pairs, choices))
	})
}
