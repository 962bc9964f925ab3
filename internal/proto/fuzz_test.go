package proto

import (
	"testing"

	"haac/internal/circuit"
	"haac/internal/ot"
)

// FuzzRunHeader: the manual run-header codec and its validator against
// arbitrary bytes. decodeHeader must never panic, encode(decode(x))
// must be the identity on the header fields, and checkHeaderWant must
// accept only headers that actually match the expected circuit shape —
// everything else fails typed as ErrMalformedFrame.
func FuzzRunHeader(f *testing.F) {
	w := wantHeaderForFuzz()
	var valid [headerSize]byte
	w.encode(valid[:])
	f.Add(valid[:])
	corruptMagic := valid
	corruptMagic[0] ^= 0x40
	f.Add(corruptMagic[:])
	badVersion := valid
	badVersion[4] = 99
	f.Add(badVersion[:])
	badOT := valid
	badOT[5] = 200
	f.Add(badOT[:])
	f.Add(make([]byte, headerSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < headerSize {
			return
		}
		h := decodeHeader(data[:headerSize])

		// Codec roundtrip: encode is the exact inverse of decode.
		var buf [headerSize]byte
		h.encode(buf[:])
		if h2 := decodeHeader(buf[:]); h2 != h {
			t.Fatalf("header codec roundtrip drifted: %+v vs %+v", h, h2)
		}

		want := wantHeaderForFuzz()
		err := checkHeaderWant(h, want)
		hOK := h
		hOK.OTProto = want.OTProto
		otValid := false
		switch ot.Protocol(h.OTProto) {
		case ot.DH, ot.Insecure, ot.IKNP:
			otValid = true
		}
		matches := hOK == want && otValid
		if matches && err != nil {
			t.Fatalf("matching header rejected: %v", err)
		}
		if !matches && err == nil {
			t.Fatalf("non-matching header accepted: %+v", h)
		}
	})
}

// wantHeaderForFuzz is the expected header of a tiny fixed circuit —
// the shape every fuzzed header is validated against.
func wantHeaderForFuzz() header {
	return headerFor(fuzzCircuit(), Options{})
}

var fuzzCircuitMemo *circuit.Circuit

// fuzzCircuit builds (once) a minimal two-input circuit for header
// validation.
func fuzzCircuit() *circuit.Circuit {
	if fuzzCircuitMemo == nil {
		c := &circuit.Circuit{
			GarblerInputs:   1,
			EvaluatorInputs: 1,
			Gates: []circuit.Gate{
				{Op: circuit.AND, A: 0, B: 1},
			},
			Outputs: []circuit.Wire{2},
		}
		if err := c.Validate(); err != nil {
			panic(err)
		}
		fuzzCircuitMemo = c
	}
	return fuzzCircuitMemo
}
