package aes128

import (
	"crypto/aes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// Differential tests for the tiered entry points in block.go. Each one
// is checked against two independent references — the package's own
// T-table path (ExpandFromBlock/EncryptBlockTo, software on every build)
// and crypto/aes — on every tier the host can run: liveTier is lowered
// step by step from what CPUID found, so one VAES host pins the VAES
// kernels, the AES-NI kernels and the fallback dispatch, and -tags
// purego pins the build that has only the last.

// hostTier is the tier detection picked; tests never raise liveTier
// above it.
var hostTier = detectTier()

// eachTier runs f once per tier this host can run, with the entry points
// dispatching on that tier, and restores the detected tier afterwards.
func eachTier(f func()) {
	defer func() { liveTier = hostTier }()
	for liveTier = tierTTable; liveTier <= hostTier; liveTier++ {
		f()
	}
}

func randBlock(rng *rand.Rand) Block { return Block{Lo: rng.Uint64(), Hi: rng.Uint64()} }

func randBlocks(rng *rand.Rand) (keys [4]Block, src [8]Block) {
	for i := range keys {
		keys[i] = randBlock(rng)
	}
	for i := range src {
		src[i] = randBlock(rng)
	}
	return
}

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

// checkAllEntryPoints runs every tiered entry point on every tier over
// the four keys and eight blocks (block i under keys[i/2], the layout of
// two garbled gates), out of place and in place, against both
// references.
func checkAllEntryPoints(t testing.TB, keys [4]Block, src [8]Block) {
	t.Helper()
	var want [8]Block
	for i := range src {
		want[i] = stdEncrypt(t, keys[i/2], src[i])
		if soft := softEncrypt(keys[i/2], src[i]); soft != want[i] {
			t.Fatalf("T-table AES_%v(%v) = %v, crypto/aes %v", keys[i/2], src[i], soft, want[i])
		}
	}
	fixedWant := src
	for i := range src {
		fixedWant[i] = stdEncrypt(t, keys[0], src[i])
	}
	eachTier(func() { checkLiveTier(t, keys, src, want, fixedWant) })
}

// checkLiveTier is checkAllEntryPoints on the tier liveTier names.
func checkLiveTier(t testing.TB, keys [4]Block, src, want, fixedWant [8]Block) {
	t.Helper()
	var one Block
	FreshKeyEncrypt(&keys[3], &one, &src[7])
	if one != want[7] {
		t.Fatalf("%s: FreshKeyEncrypt = %v, want %v", Backend(), one, want[7])
	}
	one = src[7]
	FreshKeyEncrypt(&keys[3], &one, &one)
	if one != want[7] {
		t.Fatalf("%s: FreshKeyEncrypt in place = %v, want %v", Backend(), one, want[7])
	}

	// An evaluated gate: two keys, one block each.
	keys2 := [2]Block{keys[0], keys[1]}
	pairSrc, pairWant := [2]Block{src[0], src[2]}, [2]Block{want[0], want[2]}
	var pair [2]Block
	FreshKeyPair(&keys2, &pair, &pairSrc)
	if pair != pairWant {
		t.Fatalf("%s: FreshKeyPair = %v, want %v", Backend(), pair, pairWant)
	}
	pair = pairSrc
	FreshKeyPair(&keys2, &pair, &pair)
	if pair != pairWant {
		t.Fatalf("%s: FreshKeyPair in place = %v, want %v", Backend(), pair, pairWant)
	}

	// A garbled gate: two keys, two blocks each.
	pair2Src, pair2Want := [4]Block(src[:4]), [4]Block(want[:4])
	var pair2 [4]Block
	FreshKeyPair2(&keys2, &pair2, &pair2Src)
	if pair2 != pair2Want {
		t.Fatalf("%s: FreshKeyPair2 = %v, want %v", Backend(), pair2, pair2Want)
	}
	pair2 = pair2Src
	FreshKeyPair2(&keys2, &pair2, &pair2)
	if pair2 != pair2Want {
		t.Fatalf("%s: FreshKeyPair2 in place = %v, want %v", Backend(), pair2, pair2Want)
	}

	c := NewCipher(keys[0])
	fixed := src
	c.Encrypt(fixed[:], fixed[:])
	if fixed != fixedWant {
		t.Fatalf("%s: Cipher.Encrypt = %v, want %v", Backend(), fixed, fixedWant)
	}
}

func TestFreshKeyFIPS197(t *testing.T) {
	eachTier(func() { fips197OnLiveTier(t) })
}

func fips197OnLiveTier(t *testing.T) {
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
		keys, src := randBlocks(rng)
		checkAllEntryPoints(t, keys, src)
	}
}

// tweakKeys returns the four keys the garbler derives for gates j0 and
// j1: K(t) = t ‖ ^t for tweaks 2j, 2j+1.
func tweakKeys(j0, j1 uint64) (keys [4]Block) {
	for i, t := range [4]uint64{2 * j0, 2*j0 + 1, 2 * j1, 2*j1 + 1} {
		keys[i] = Block{Lo: t, Hi: ^t}
	}
	return
}

// TestTiersAgreeOnTweakKeys covers the keys the garbler actually uses,
// for neighbouring and far-apart gate pairs, including the extremes.
func TestTiersAgreeOnTweakKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gates := []uint64{0, 1, 2, 1 << 31, 1<<62 - 1, 1 << 62, 1<<63 - 1}
	for i := 0; i < 100; i++ {
		gates = append(gates, rng.Uint64()>>1)
	}
	for i, j0 := range gates {
		_, src := randBlocks(rng)
		checkAllEntryPoints(t, tweakKeys(j0, j0+1), src)
		checkAllEntryPoints(t, tweakKeys(j0, gates[len(gates)-1-i]), src)
	}
}

// TestCipherEncryptLengths exercises the four-wide loop and its tail.
func TestCipherEncryptLengths(t *testing.T) {
	eachTier(func() { cipherLengthsOnLiveTier(t) })
}

func cipherLengthsOnLiveTier(t *testing.T) {
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
	want := [...]string{tierTTable: "ttable", tierAESNI: "aesni", tierVAES: "vaes", tierVAES512: "vaes512"}
	eachTier(func() {
		if Backend() != want[liveTier] {
			t.Fatalf("Backend() = %q on tier %d, want %q", Backend(), liveTier, want[liveTier])
		}
	})
	t.Logf("aes128 backend: %s", Backend())
}

// TestOneGateBackendIsAESNIOnEveryHardwareTier: the VAES tiers add the
// step kernels and run every one-gate entry point on the AES-NI kernels.
func TestOneGateBackendIsAESNIOnEveryHardwareTier(t *testing.T) {
	want := [...]string{tierTTable: "ttable", tierAESNI: "aesni", tierVAES: "aesni", tierVAES512: "aesni"}
	eachTier(func() {
		if OneGateBackend() != want[liveTier] {
			t.Fatalf("OneGateBackend() = %q on the %s tier, want %q", OneGateBackend(), Backend(), want[liveTier])
		}
	})
}

// TestFreshKeyNoAllocs: no tiered entry point may allocate — the
// garbling engines count on zero steady-state allocations per gate.
func TestFreshKeyNoAllocs(t *testing.T) {
	var keys [4]Block
	var blk [8]Block
	c := NewCipher(Block{Lo: 1})
	eachTier(func() {
		if avg := testing.AllocsPerRun(100, func() {
			keys[0].Lo++
			FreshKeyEncrypt(&keys[0], &blk[0], &blk[0])
			FreshKeyPair((*[2]Block)(keys[:2]), (*[2]Block)(blk[:2]), (*[2]Block)(blk[2:]))
			FreshKeyPair2((*[2]Block)(keys[:2]), (*[4]Block)(blk[:4]), (*[4]Block)(blk[4:]))
			c.Encrypt(blk[:], blk[:])
		}); avg != 0 {
			t.Fatalf("%s: tiered entry points allocate %.1f times per call set", Backend(), avg)
		}
	})
}

// FuzzFreshKeyEncrypt feeds arbitrary keys and blocks through every
// tiered entry point and both references.
func FuzzFreshKeyEncrypt(f *testing.F) {
	f.Add(append(append([]byte{}, fips197Key...), fips197Key...), append(append(append(append([]byte{}, fips197Pt...), fips197Pt...), fips197Ct...), fips197Ct...))
	f.Add(make([]byte, 32), make([]byte, 64))
	f.Fuzz(func(t *testing.T, keyBytes, blockBytes []byte) {
		var kb [64]byte
		copy(kb[:], keyBytes)
		var keys [4]Block
		for i := range keys {
			keys[i] = LoadBlock(kb[16*i:])
		}
		checkAllEntryPoints(t, keys, blocksFrom(blockBytes))
	})
}

// blocksFrom reads eight blocks from b, zero-padded or truncated.
func blocksFrom(b []byte) (src [8]Block) {
	var bb [128]byte
	copy(bb[:], b)
	for i := range src {
		src[i] = LoadBlock(bb[16*i:])
	}
	return
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
