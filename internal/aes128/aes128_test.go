package aes128

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// fips197Key/fips197Pt/fips197Ct are the FIPS-197 Appendix B example.
var (
	fips197Key = mustHex("2b7e151628aed2a6abf7158809cf4f3c")
	fips197Pt  = mustHex("3243f6a8885a308d313198a2e0370734")
	fips197Ct  = mustHex("3925841d02dc09fbdc118597196a0b32")
)

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

func TestFIPS197Vector(t *testing.T) {
	var key [KeySize]byte
	copy(key[:], fips197Key)
	got := make([]byte, BlockSize)
	EncryptBlock(&key, got, fips197Pt)
	if !bytes.Equal(got, fips197Ct) {
		t.Fatalf("FIPS-197 vector mismatch:\n got %x\nwant %x", got, fips197Ct)
	}
}

func TestExpandFirstAndLastWords(t *testing.T) {
	var key [KeySize]byte
	copy(key[:], fips197Key)
	s := Expand(&key)
	// First words are the key itself.
	if s[0] != 0x2b7e1516 || s[3] != 0x09cf4f3c {
		t.Fatalf("schedule head wrong: %08x %08x", s[0], s[3])
	}
	// Last word from FIPS-197 Appendix A.1: w[43] = b6630ca6.
	if s[43] != 0xb6630ca6 {
		t.Fatalf("schedule tail wrong: got %08x want b6630ca6", s[43])
	}
}

func TestMatchesCryptoAES(t *testing.T) {
	f := func(key [KeySize]byte, pt [BlockSize]byte) bool {
		ref, err := aes.NewCipher(key[:])
		if err != nil {
			return false
		}
		want := make([]byte, BlockSize)
		ref.Encrypt(want, pt[:])
		got := make([]byte, BlockSize)
		EncryptBlock(&key, got, pt[:])
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptInPlace(t *testing.T) {
	var key [KeySize]byte
	copy(key[:], fips197Key)
	s := Expand(&key)
	buf := make([]byte, BlockSize)
	copy(buf, fips197Pt)
	Encrypt(&s, buf, buf)
	if !bytes.Equal(buf, fips197Ct) {
		t.Fatalf("in-place encryption mismatch: %x", buf)
	}
}

func TestScheduleReuseIsDeterministic(t *testing.T) {
	var key [KeySize]byte
	rng := rand.New(rand.NewSource(7))
	rng.Read(key[:])
	s := Expand(&key)
	pt := make([]byte, BlockSize)
	rng.Read(pt)
	a := make([]byte, BlockSize)
	b := make([]byte, BlockSize)
	Encrypt(&s, a, pt)
	Encrypt(&s, b, pt)
	if !bytes.Equal(a, b) {
		t.Fatal("same schedule, same plaintext produced different ciphertexts")
	}
}

func TestSBoxBijective(t *testing.T) {
	seen := make(map[byte]bool)
	for i := 0; i < 256; i++ {
		v := sbox[i]
		if seen[v] {
			t.Fatalf("S-box value %#x repeated", v)
		}
		seen[v] = true
	}
	if sbox[0x00] != 0x63 || sbox[0x53] != 0xed {
		t.Fatal("S-box known values wrong")
	}
}

func BenchmarkExpand(b *testing.B) {
	var key [KeySize]byte
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		s := Expand(&key)
		_ = s
	}
}

func BenchmarkEncryptReusedKey(b *testing.B) {
	var key [KeySize]byte
	s := Expand(&key)
	buf := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		Encrypt(&s, buf, buf)
	}
}

func BenchmarkEncryptRekeyed(b *testing.B) {
	var key [KeySize]byte
	buf := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		EncryptBlock(&key, buf, buf)
	}
}
