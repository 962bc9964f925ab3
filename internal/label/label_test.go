package label

import (
	"testing"
	"testing/quick"
)

func TestXorProperties(t *testing.T) {
	identity := func(a L) bool { return a.Xor(Zero) == a }
	selfInverse := func(a L) bool { return a.Xor(a) == Zero }
	commutative := func(a, b L) bool { return a.Xor(b) == b.Xor(a) }
	associative := func(a, b, c L) bool { return a.Xor(b).Xor(c) == a.Xor(b.Xor(c)) }

	for name, f := range map[string]any{
		"identity": identity, "selfInverse": selfInverse,
		"commutative": commutative, "associative": associative,
	} {
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(a L) bool {
		b := a.Bytes()
		return FromBytes(b[:]) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPutMatchesBytes(t *testing.T) {
	f := func(a L) bool {
		var dst [Size]byte
		a.Put(dst[:])
		return dst == a.Bytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestColourIsLSB(t *testing.T) {
	if (L{Lo: 0}).Colour() != 0 || (L{Lo: 1}).Colour() != 1 {
		t.Fatal("colour bit is not the LSB of Lo")
	}
	f := func(a L) bool {
		b := a.Bytes()
		return a.Colour() == int(b[0]&1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandIsNotConstant(t *testing.T) {
	a, err := Rand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Rand()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two crypto/rand labels were equal")
	}
}

func TestSourceDeterminism(t *testing.T) {
	s1 := NewSource(42)
	s2 := NewSource(42)
	for i := 0; i < 100; i++ {
		if s1.Next() != s2.Next() {
			t.Fatal("same seed produced different streams")
		}
	}
	s3 := NewSource(43)
	if NewSource(42).Next() == s3.Next() {
		t.Fatal("different seeds produced the same first label")
	}
}

func TestSourceNextDeltaColour(t *testing.T) {
	s := NewSource(1)
	for i := 0; i < 64; i++ {
		if s.NextDelta().Colour() != 1 {
			t.Fatal("NextDelta colour bit not set")
		}
	}
}

func TestEncodeDecodeSliceRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, 64, 1000} {
		src := NewSource(uint64(n) + 1)
		ls := make([]L, n)
		for i := range ls {
			ls[i] = src.Next()
		}
		buf := make([]byte, Size*n)
		for i, l := range ls {
			l.Put(buf[i*Size:])
		}
		back := make([]L, n)
		if got := DecodeSlice(back, buf); got != Size*n {
			t.Fatalf("n=%d: DecodeSlice read %d bytes, want %d", n, got, Size*n)
		}
		for i := range ls {
			if back[i] != ls[i] {
				t.Fatalf("n=%d: round-trip mismatch at label %d", n, i)
			}
		}
	}
}

func TestBulkCodecNoAllocs(t *testing.T) {
	const n = 512
	ls := make([]L, n)
	buf := make([]byte, Size*n)
	if avg := testing.AllocsPerRun(100, func() {
		DecodeSlice(ls, buf)
	}); avg != 0 {
		t.Fatalf("bulk codec allocates %.1f times per run, want 0", avg)
	}
}

func TestStringLength(t *testing.T) {
	if got := len(Zero.String()); got != 32 {
		t.Fatalf("hex string length = %d, want 32", got)
	}
}
