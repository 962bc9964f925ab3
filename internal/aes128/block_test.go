package aes128

import (
	"crypto/aes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// Differential tests for the tiered entry points in block.go. Each one
// is checked against two independent references — the package's own
// T-table path (ExpandFromBlock/EncryptBlockTo, software on every build) and
// crypto/aes — so the same file pins the AES-NI kernels in a default
// amd64 build and the fallback dispatch under -tags purego.

func randBlock(rng *rand.Rand) Block { return Block{Lo: rng.Uint64(), Hi: rng.Uint64()} }

// stdEncrypt is AES_key(src) by crypto/aes.
func stdEncrypt(t testing.TB, key, src Block) Block {
	t.Helper()
	var k, in, out [16]byte
	binary.LittleEndian.PutUint64(k[0:], key.Lo)
	binary.LittleEndian.PutUint64(k[8:], key.Hi)
	binary.LittleEndian.PutUint64(in[0:], src.Lo)
	binary.LittleEndian.PutUint64(in[8:], src.Hi)
	c, err := aes.NewCipher(k[:])
	if err != nil {
		t.Fatal(err)
	}
	c.Encrypt(out[:], in[:])
	return LoadBlock(out[:])
}

// softEncrypt is AES_key(src) by the T-table path.
func softEncrypt(key, src Block) Block {
	var s Schedule
	s.ExpandFromBlock(&key)
	var out Block
	s.EncryptBlockTo(&out, &src)
	return out
}

// checkAllEntryPoints runs every tiered entry point over the two keys
// and four blocks, out of place and in place, against both references.
func checkAllEntryPoints(t testing.TB, keys [2]Block, src [4]Block) {
	t.Helper()
	var want [4]Block // block i under keys[i/2]
	for i := range src {
		want[i] = stdEncrypt(t, keys[i/2], src[i])
		if soft := softEncrypt(keys[i/2], src[i]); soft != want[i] {
			t.Fatalf("T-table AES_%v(%v) = %v, crypto/aes %v", keys[i/2], src[i], soft, want[i])
		}
	}

	var one Block
	FreshKeyEncrypt(&keys[1], &one, &src[3])
	if one != want[3] {
		t.Fatalf("FreshKeyEncrypt = %v, want %v (backend %s)", one, want[3], Backend())
	}
	one = src[3]
	FreshKeyEncrypt(&keys[1], &one, &one)
	if one != want[3] {
		t.Fatalf("FreshKeyEncrypt in place = %v, want %v", one, want[3])
	}

	pairSrc, pairWant := [2]Block{src[0], src[2]}, [2]Block{want[0], want[2]}
	var pair [2]Block
	FreshKeyPair(&keys, &pair, &pairSrc)
	if pair != pairWant {
		t.Fatalf("FreshKeyPair = %v, want %v (backend %s)", pair, pairWant, Backend())
	}
	pair = pairSrc
	FreshKeyPair(&keys, &pair, &pair)
	if pair != pairWant {
		t.Fatalf("FreshKeyPair in place = %v, want %v", pair, pairWant)
	}

	var quad [4]Block
	FreshKeyPair2(&keys, &quad, &src)
	if quad != want {
		t.Fatalf("FreshKeyPair2 = %v, want %v (backend %s)", quad, want, Backend())
	}
	quad = src
	FreshKeyPair2(&keys, &quad, &quad)
	if quad != want {
		t.Fatalf("FreshKeyPair2 in place = %v, want %v", quad, want)
	}

	c := NewCipher(keys[0])
	fixed := src
	c.Encrypt(fixed[:], fixed[:])
	for i := range fixed {
		if w := stdEncrypt(t, keys[0], src[i]); fixed[i] != w {
			t.Fatalf("Cipher.Encrypt block %d = %v, want %v (backend %s)", i, fixed[i], w, Backend())
		}
	}
}

func TestFreshKeyFIPS197(t *testing.T) {
	key, pt, ct := LoadBlock(fips197Key), LoadBlock(fips197Pt), LoadBlock(fips197Ct)
	var got Block
	FreshKeyEncrypt(&key, &got, &pt)
	if got != ct {
		t.Fatalf("FreshKeyEncrypt on the FIPS-197 vector = %v, want %v", got, ct)
	}
	c := NewCipher(key)
	blk := []Block{pt}
	c.Encrypt(blk, blk)
	if blk[0] != ct {
		t.Fatalf("Cipher.Encrypt on the FIPS-197 vector = %v, want %v", blk[0], ct)
	}
	keys := [2]Block{key, key}
	quad := [4]Block{pt, pt, pt, pt}
	FreshKeyPair2(&keys, &quad, &quad)
	if quad != [4]Block{ct, ct, ct, ct} {
		t.Fatalf("FreshKeyPair2 on the FIPS-197 vector = %v", quad)
	}
}

func TestTiersAgreeOnRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 500; i++ {
		keys := [2]Block{randBlock(rng), randBlock(rng)}
		src := [4]Block{randBlock(rng), randBlock(rng), randBlock(rng), randBlock(rng)}
		checkAllEntryPoints(t, keys, src)
	}
}

// TestTiersAgreeOnTweakKeys covers the keys the garbler actually uses:
// K(t) = t ‖ ^t for consecutive tweaks 2j, 2j+1, including the extremes.
func TestTiersAgreeOnTweakKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tweaks := []uint64{0, 1, 2, 1 << 32, 1<<63 - 1, 1 << 63, ^uint64(0) - 1}
	for i := 0; i < 100; i++ {
		tweaks = append(tweaks, rng.Uint64()&^1)
	}
	for _, t0 := range tweaks {
		keys := [2]Block{{Lo: t0, Hi: ^t0}, {Lo: t0 + 1, Hi: ^(t0 + 1)}}
		src := [4]Block{randBlock(rng), randBlock(rng), randBlock(rng), randBlock(rng)}
		checkAllEntryPoints(t, keys, src)
	}
}

// TestCipherEncryptLengths exercises the four-wide loop and its tail.
func TestCipherEncryptLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	key := randBlock(rng)
	c := NewCipher(key)
	for n := 0; n <= 13; n++ {
		src := make([]Block, n)
		for i := range src {
			src[i] = randBlock(rng)
		}
		dst := make([]Block, n+1) // longer than src: the extra block must stay untouched
		guard := randBlock(rng)
		dst[n] = guard
		c.Encrypt(dst, src)
		for i := range src {
			if want := stdEncrypt(t, key, src[i]); dst[i] != want {
				t.Fatalf("n=%d block %d = %v, want %v", n, i, dst[i], want)
			}
		}
		if dst[n] != guard {
			t.Fatalf("n=%d: Encrypt wrote past len(src)", n)
		}
	}
}

func TestLoadBlockIsLittleEndian(t *testing.T) {
	b := LoadBlock(fips197Pt)
	if b.Lo != 0x8d305a88a8f64332 || b.Hi != 0x340737e0a2983131 {
		t.Fatalf("LoadBlock = %#x %#x: words are not little-endian", b.Lo, b.Hi)
	}
}

func TestBackendIsNamed(t *testing.T) {
	if b := Backend(); b != "aesni" && b != "ttable" {
		t.Fatalf("Backend() = %q", b)
	}
	t.Logf("aes128 backend: %s", Backend())
}

// TestFreshKeyNoAllocs: no tiered entry point may allocate — the
// garbling engines count on zero steady-state allocations per gate.
func TestFreshKeyNoAllocs(t *testing.T) {
	var keys [2]Block
	var blk [4]Block
	c := NewCipher(Block{Lo: 1})
	if avg := testing.AllocsPerRun(100, func() {
		keys[0].Lo++
		FreshKeyEncrypt(&keys[0], &blk[0], &blk[0])
		FreshKeyPair(&keys, (*[2]Block)(blk[:2]), (*[2]Block)(blk[2:]))
		FreshKeyPair2(&keys, &blk, &blk)
		c.Encrypt(blk[:], blk[:])
	}); avg != 0 {
		t.Fatalf("tiered entry points allocate %.1f times per call set", avg)
	}
}

// FuzzFreshKeyEncrypt feeds arbitrary keys and blocks through every
// tiered entry point and both references.
func FuzzFreshKeyEncrypt(f *testing.F) {
	f.Add(append(append([]byte{}, fips197Key...), fips197Key...), append(append(append(append([]byte{}, fips197Pt...), fips197Pt...), fips197Ct...), fips197Ct...))
	f.Add(make([]byte, 32), make([]byte, 64))
	f.Fuzz(func(t *testing.T, keyBytes, blockBytes []byte) {
		var kb [32]byte
		var bb [64]byte
		copy(kb[:], keyBytes)
		copy(bb[:], blockBytes)
		keys := [2]Block{LoadBlock(kb[0:]), LoadBlock(kb[16:])}
		src := [4]Block{LoadBlock(bb[0:]), LoadBlock(bb[16:]), LoadBlock(bb[32:]), LoadBlock(bb[48:])}
		checkAllEntryPoints(t, keys, src)
	})
}

// BenchmarkFreshKeyEncrypt: one fresh key, one block (Hasher.Hash).
func BenchmarkFreshKeyEncrypt(b *testing.B) {
	var key, src, dst Block
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		key.Lo = uint64(i)
		FreshKeyEncrypt(&key, &dst, &src)
	}
}

// BenchmarkFreshKeyPair: two fresh keys, one block each (an evaluated
// AND gate).
func BenchmarkFreshKeyPair(b *testing.B) {
	var keys, src, dst [2]Block
	b.SetBytes(2 * BlockSize)
	for i := 0; i < b.N; i++ {
		keys[0].Lo, keys[1].Lo = uint64(2*i), uint64(2*i+1)
		FreshKeyPair(&keys, &dst, &src)
	}
}

// BenchmarkFreshKeyPair2: two fresh keys, two blocks each (a garbled
// AND gate).
func BenchmarkFreshKeyPair2(b *testing.B) {
	var keys [2]Block
	var src, dst [4]Block
	b.SetBytes(4 * BlockSize)
	for i := 0; i < b.N; i++ {
		keys[0].Lo, keys[1].Lo = uint64(2*i), uint64(2*i+1)
		FreshKeyPair2(&keys, &dst, &src)
	}
}

// BenchmarkCipherEncrypt4: four blocks under a stored schedule (the
// fixed-key hasher's garbled gate) — the denominator of the re-keying
// overhead at the kernel level.
func BenchmarkCipherEncrypt4(b *testing.B) {
	c := NewCipher(Block{Lo: 1})
	var src, dst [4]Block
	b.SetBytes(4 * BlockSize)
	for i := 0; i < b.N; i++ {
		src[0].Lo = uint64(i)
		c.Encrypt(dst[:], src[:])
	}
}
