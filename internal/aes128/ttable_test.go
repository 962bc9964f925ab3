package aes128

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// encryptTo runs EncryptBlockTo, the T-table path, over byte slices.
func encryptTo(s *Schedule, dst, src []byte) {
	b := LoadBlock(src)
	s.EncryptBlockTo(&b, &b)
	binary.LittleEndian.PutUint64(dst[0:8], b.Lo)
	binary.LittleEndian.PutUint64(dst[8:16], b.Hi)
}

func TestTTableFIPS197Vector(t *testing.T) {
	var key [KeySize]byte
	copy(key[:], fips197Key)
	var s Schedule
	s.ExpandFrom(&key)
	got := make([]byte, BlockSize)
	encryptTo(&s, got, fips197Pt)
	if !bytes.Equal(got, fips197Ct) {
		t.Fatalf("FIPS-197 vector mismatch:\n got %x\nwant %x", got, fips197Ct)
	}
}

func TestExpandFromMatchesExpand(t *testing.T) {
	f := func(key [KeySize]byte) bool {
		want := Expand(&key)
		var got Schedule
		got.ExpandFrom(&key)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEncryptToMatchesCryptoAES pins the fast path against the standard
// library on random key/plaintext pairs.
func TestEncryptToMatchesCryptoAES(t *testing.T) {
	f := func(key [KeySize]byte, pt [BlockSize]byte) bool {
		ref, err := aes.NewCipher(key[:])
		if err != nil {
			return false
		}
		want := make([]byte, BlockSize)
		ref.Encrypt(want, pt[:])
		var s Schedule
		s.ExpandFrom(&key)
		got := make([]byte, BlockSize)
		encryptTo(&s, got, pt[:])
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEncryptToMatchesReference pins the fast path against the package's
// own byte-oriented reference implementation.
func TestEncryptToMatchesReference(t *testing.T) {
	f := func(key [KeySize]byte, pt [BlockSize]byte) bool {
		s := Expand(&key)
		want := make([]byte, BlockSize)
		Encrypt(&s, want, pt[:])
		got := make([]byte, BlockSize)
		encryptTo(&s, got, pt[:])
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptToInPlace(t *testing.T) {
	var key [KeySize]byte
	copy(key[:], fips197Key)
	var s Schedule
	s.ExpandFrom(&key)
	buf := make([]byte, BlockSize)
	copy(buf, fips197Pt)
	encryptTo(&s, buf, buf)
	if !bytes.Equal(buf, fips197Ct) {
		t.Fatalf("in-place fast-path encryption mismatch: %x", buf)
	}
}

// TestFastPathNoAllocs: the re-keyed hot sequence (expand + two blocks)
// must not allocate.
func TestFastPathNoAllocs(t *testing.T) {
	var key [KeySize]byte
	var s Schedule
	var buf [2]Block
	if avg := testing.AllocsPerRun(100, func() {
		key[0]++
		s.ExpandFrom(&key)
		s.EncryptBlockTo(&buf[0], &buf[0])
		s.EncryptBlockTo(&buf[1], &buf[1])
	}); avg != 0 {
		t.Fatalf("expand+encrypt allocates %.1f times per re-key", avg)
	}
}

func BenchmarkExpandFrom(b *testing.B) {
	var key [KeySize]byte
	var s Schedule
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		s.ExpandFrom(&key)
	}
}

func BenchmarkEncryptBlockTo(b *testing.B) {
	var key [KeySize]byte
	var s Schedule
	s.ExpandFrom(&key)
	var buf Block
	b.SetBytes(BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.EncryptBlockTo(&buf, &buf)
	}
}

// BenchmarkRekeyedBlock is the re-keyed gate pattern at the aes128
// level: one fresh schedule then two blocks under it (the garbler's
// per-tweak work). Compare with BenchmarkEncryptBlockTo to see the pure key
// expansion surcharge the paper models as +27.5%.
func BenchmarkRekeyedBlock(b *testing.B) {
	var key [KeySize]byte
	var s Schedule
	var buf [2]Block
	b.SetBytes(2 * BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		s.ExpandFrom(&key)
		s.EncryptBlockTo(&buf[0], &buf[0])
		s.EncryptBlockTo(&buf[1], &buf[1])
	}
}
