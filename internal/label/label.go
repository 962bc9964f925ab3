// Package label implements the 128-bit wire labels used by garbled
// circuits. A label is the encrypted value carried on a wire: the garbler
// assigns two labels per wire (one per plaintext bit) and the evaluator
// only ever sees one of them.
//
// Labels follow the FreeXOR convention: the garbler picks a global secret
// offset R and sets W1 = W0 XOR R for every wire, which lets XOR gates be
// evaluated with a plain label XOR and no garbled table. The least
// significant bit of R is forced to 1 so the two labels of a wire always
// differ in their colour (point-and-permute) bit.
package label

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
)

// Size is the byte length of a wire label (128 bits).
const Size = 16

// L is a 128-bit wire label. The two halves are stored as native uint64s
// so XOR and comparison compile to a handful of instructions; Lo holds the
// little-endian first 8 bytes of the serialized form.
type L struct {
	Lo, Hi uint64
}

// Zero is the all-zero label. It is the identity for XOR and also the
// label representation of public-constant-false under FreeXOR conventions.
var Zero = L{}

// Xor returns a ^ b.
func (a L) Xor(b L) L {
	return L{a.Lo ^ b.Lo, a.Hi ^ b.Hi}
}

// Colour returns the point-and-permute bit (LSB) of the label. Half-gate
// garbling uses it to select table rows without leaking the wire value.
func (a L) Colour() int {
	return int(a.Lo & 1)
}

// IsZero reports whether the label is all zero.
func (a L) IsZero() bool {
	return a.Lo == 0 && a.Hi == 0
}

// Bytes serializes the label as 16 little-endian bytes.
func (a L) Bytes() [Size]byte {
	var b [Size]byte
	binary.LittleEndian.PutUint64(b[0:8], a.Lo)
	binary.LittleEndian.PutUint64(b[8:16], a.Hi)
	return b
}

// Put writes the label into dst, which must be at least Size bytes.
func (a L) Put(dst []byte) {
	binary.LittleEndian.PutUint64(dst[0:8], a.Lo)
	binary.LittleEndian.PutUint64(dst[8:16], a.Hi)
}

// FromBytes deserializes a label from 16 little-endian bytes.
func FromBytes(b []byte) L {
	return L{
		Lo: binary.LittleEndian.Uint64(b[0:8]),
		Hi: binary.LittleEndian.Uint64(b[8:16]),
	}
}

// DecodeSlice deserializes len(dst) labels from src at 16-byte stride and
// returns the number of bytes consumed. src must hold at least
// Size*len(dst) bytes.
func DecodeSlice(dst []L, src []byte) int {
	_ = src[:Size*len(dst)]
	for i := range dst {
		dst[i] = L{
			Lo: binary.LittleEndian.Uint64(src[i*Size:]),
			Hi: binary.LittleEndian.Uint64(src[i*Size+8:]),
		}
	}
	return Size * len(dst)
}

// String renders the label as 32 hex digits (serialized byte order).
func (a L) String() string {
	b := a.Bytes()
	return fmt.Sprintf("%x", b[:])
}

// Rand returns a fresh uniformly random label using crypto/rand.
func Rand() (L, error) {
	var b [Size]byte
	if _, err := rand.Read(b[:]); err != nil {
		return L{}, fmt.Errorf("label: reading randomness: %w", err)
	}
	return FromBytes(b[:]), nil
}

// Source is a deterministic label generator seeded from a 64-bit value.
// It exists for tests and for the functional HAAC executor, where runs
// must be reproducible; it must not be used for real two-party execution.
// The generator is SplitMix64 applied independently to both halves.
type Source struct {
	state uint64
}

// NewSource returns a deterministic Source seeded with seed.
func NewSource(seed uint64) *Source {
	return &Source{state: seed}
}

func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Next returns the next deterministic label.
func (s *Source) Next() L {
	return L{Lo: splitmix(&s.state), Hi: splitmix(&s.state)}
}

// NextDelta returns the next deterministic label with the colour bit set,
// suitable as a FreeXOR offset.
func (s *Source) NextDelta() L {
	l := s.Next()
	l.Lo |= 1
	return l
}

// State returns the source's current state without advancing it. A
// source reseeded with this value replays the draws that follow — the
// hook that lets a garbler re-emit a run's deterministic label stream
// when a broken transfer resumes.
func (s *Source) State() uint64 { return s.state }

// Reseed resets the source to a previously captured State (or any
// seed), so subsequent draws replay deterministically.
func (s *Source) Reseed(seed uint64) { s.state = seed }
