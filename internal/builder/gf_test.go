package builder

import (
	"testing"

	"haac/internal/aes128"
	"haac/internal/circuit"
)

func TestGF16MulCircuit(t *testing.T) {
	b := New()
	x := b.GarblerInputs(4)
	y := b.EvaluatorInputs(4)
	b.OutputWord(b.GF16Mul(x, y))
	c := b.MustBuild()
	for a := 0; a < 16; a++ {
		for d := 0; d < 16; d++ {
			out, err := c.Eval(circuit.UintToBools(uint64(a), 4), circuit.UintToBools(uint64(d), 4))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := byte(circuit.BoolsToUint(out)), gf16Mul(byte(a), byte(d)); got != want {
				t.Fatalf("GF16Mul(%x,%x) = %x, want %x", a, d, got, want)
			}
		}
	}
}

func TestGF16InvCircuit(t *testing.T) {
	b := New()
	x := b.GarblerInputs(4)
	b.OutputWord(b.GF16Inv(x))
	c := b.MustBuild()
	for a := 0; a < 16; a++ {
		out, err := c.Eval(circuit.UintToBools(uint64(a), 4), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := byte(circuit.BoolsToUint(out)), gf16Inv[a]; got != want {
			t.Fatalf("GF16Inv(%x) = %x, want %x", a, got, want)
		}
	}
}

func TestGF16InvTableConsistent(t *testing.T) {
	for a := 1; a < 16; a++ {
		if gf16Mul(byte(a), gf16Inv[a]) != 1 {
			t.Fatalf("gf16Inv[%x] = %x is not an inverse", a, gf16Inv[a])
		}
	}
	if gf16Inv[0] != 0 {
		t.Fatal("gf16Inv[0] must be 0")
	}
}

func TestGF256InvCircuitExhaustive(t *testing.T) {
	b := New()
	x := b.GarblerInputs(8)
	b.OutputWord(b.GF256Inv(x))
	c := b.MustBuild()
	for a := 0; a < 256; a++ {
		out, err := c.Eval(circuit.UintToBools(uint64(a), 8), nil)
		if err != nil {
			t.Fatal(err)
		}
		got := byte(circuit.BoolsToUint(out))
		if a == 0 {
			if got != 0 {
				t.Fatalf("GF256Inv(0) = %x, want 0", got)
			}
			continue
		}
		if gf256Mul(byte(a), got) != 1 {
			t.Fatalf("GF256Inv(%x) = %x is not an inverse", a, got)
		}
	}
}

// aesSBox reads S(a) out of the first AES-128 key-schedule step: with
// key words w0 = 0 and w3 = a<<16, w4 = SubWord(RotWord(w3)) ^ Rcon[1],
// whose top byte is S(a) ^ 0x01. It keeps the reference independent of
// the tower-field construction under test.
func aesSBox(a byte) byte {
	var key [aes128.KeySize]byte
	key[13] = a
	s := aes128.Expand(&key)
	return byte(s[4]>>24) ^ 0x01
}

func TestSBoxCircuitExhaustive(t *testing.T) {
	b := New()
	x := b.GarblerInputs(8)
	b.OutputWord(b.SBox(x))
	c := b.MustBuild()
	and, _, _ := c.CountOps()
	if and > 80 {
		t.Fatalf("S-box uses %d AND gates; tower construction should need < 80", and)
	}
	for a := 0; a < 256; a++ {
		out, err := c.Eval(circuit.UintToBools(uint64(a), 8), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := byte(circuit.BoolsToUint(out)), aesSBox(byte(a)); got != want {
			t.Fatalf("SBox(%02x) = %02x, want %02x", a, got, want)
		}
	}
	t.Logf("S-box circuit: %d AND gates, %d total", and, len(c.Gates))
}
