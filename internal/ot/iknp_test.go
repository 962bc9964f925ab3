package ot

import (
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
// naive per-bit flip over a multi-word chunk.
func TestTransposeColumnsMatchesBitLoop(t *testing.T) {
	const colWords = 3 // 192 transfers
	rng := rand.New(rand.NewSource(2))
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
			t.Fatalf("row %d: got %x, want %x", j, rows[j], want)
		}
	}
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
		back := b.Bools()
		for i := range bools {
			if back[i] != bools[i] || (b.Bit(i) == 1) != bools[i] {
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

// TestIKNPBitsetMatchesBools: the packed and []bool receiver entry
// points are interchangeable transfer for transfer.
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
