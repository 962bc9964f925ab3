package ot

// Bitset is a packed choice vector: bit j of word j/64 is choice j.
// IKNP consumes choices in 64-bit words (the transpose and the column
// masks operate on whole words), so packing once at the boundary removes
// the per-bit []bool shuffling the hot path used to pay. The bit order
// matches the wire's column layout: little-endian bytes, LSB first —
// bit j lives in byte j/8 at position j%8.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an all-zero bitset of n choices.
func NewBitset(n int) Bitset {
	return Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// BitsetFromBools packs a []bool choice vector.
func BitsetFromBools(choices []bool) Bitset {
	b := NewBitset(len(choices))
	for j, c := range choices {
		var bit uint64
		if c {
			bit = 1
		}
		b.words[j>>6] |= bit << (uint(j) & 63)
	}
	return b
}

// Len returns the number of choices.
func (b Bitset) Len() int { return b.n }

// Bit returns choice j as 0 or 1.
func (b Bitset) Bit(j int) int {
	return int(b.words[j>>6] >> (uint(j) & 63) & 1)
}

// CopyBools repacks choices into b in place; len(choices) must equal
// Len. It lets a long-lived session reuse one bitset across runs
// instead of allocating with BitsetFromBools per run.
func (b Bitset) CopyBools(choices []bool) {
	if len(choices) != b.n {
		panic("ot: CopyBools length mismatch")
	}
	for w := range b.words {
		b.words[w] = 0
	}
	for j, c := range choices {
		var bit uint64
		if c {
			bit = 1
		}
		b.words[j>>6] |= bit << (uint(j) & 63)
	}
}
