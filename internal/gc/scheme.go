// Package gc implements the garbling scheme HAAC accelerates: FreeXOR
// [Kolesnikov-Schneider] for XOR gates and the two-halves ("half-gate")
// construction [Zahur-Rosulek-Evans] for AND gates, using the re-keyed
// hash the paper adopts for security (§2.1): every AND gate derives two
// fresh AES keys from its gate index, paying two key expansions per gate
// exactly as HAAC's Half-Gate pipeline does.
//
// The package has one production engine and one oracle. PlanGarbler and
// PlanEvaluator execute a precompiled circuit.Plan (segment-scheduled,
// slot-renamed, sequential within a run) and are what internal/proto
// and everything above it run. Garble and Evaluate walk the raw
// circuit in gate order; they are the reference the engine, the
// compiler and the simulator are checked against.
//
// All AES goes through internal/aes128, which picks its backend once at
// start-up: VAES, AES-NI — both expand a gate's fresh keys while they
// encrypt — or portable T-table code. The hashers here are the same on
// all three and their outputs are byte-identical (golden_test.go pins
// them). On a VAES host the plan runners hand each schedule step to
// aes128's step kernels (step.go), which do its free gates and then the
// whole of each AND gate — label gather, keys, AES, row selection, table
// and label stores — eight or four AND gates in flight, in one call;
// what stays in Go there is the step loop and the table transport.
// Everywhere else, and for every hasher but RekeyedHasher, the runners
// take the free gates in a Go loop and garble one AND gate at a time
// through garbleGate/evalGate, the code the oracle runs.
//
// Row selection and the permute bit: garbleRows and evalRows choose rows
// with branches on colour bits, and on the garbler that bit is the
// secret permute bit. The step kernels select with masks and have no
// label-dependent branch or address, so the serving path on VAES hosts
// is constant-time in the labels; on AES-NI-only and portable hosts the
// serving path is the branching Go code.
package gc

import (
	"fmt"

	"haac/internal/aes128"
	"haac/internal/label"
)

// Material is the garbled table of one AND gate: the two half-gate rows.
// At 32 bytes per AND gate this is the paper's per-gate "table"
// constant, the unit of the accelerator's table stream.
type Material struct {
	TG, TE label.L
}

// MaterialSize is the byte size of one AND-gate table.
const MaterialSize = 2 * label.Size

// Bytes serializes the material (TG then TE, little-endian labels).
func (m Material) Bytes() [MaterialSize]byte {
	var b [MaterialSize]byte
	m.TG.Put(b[0:16])
	m.TE.Put(b[16:32])
	return b
}

// EncodeMaterials serializes src into dst at MaterialSize stride and
// returns the number of bytes written — the bulk form of Bytes, and the
// definition of the table stream's wire format. The transport moves
// tables as MaterialBytes of the runners' arenas instead; this is what
// that view is tested against, and what puts it into wire order on a
// big-endian host. dst must hold at least MaterialSize*len(src) bytes.
func EncodeMaterials(dst []byte, src []Material) int {
	_ = dst[:MaterialSize*len(src)]
	for i, m := range src {
		m.TG.Put(dst[i*MaterialSize:])
		m.TE.Put(dst[i*MaterialSize+label.Size:])
	}
	return MaterialSize * len(src)
}

// DecodeMaterials deserializes len(dst) tables from src at MaterialSize
// stride and returns the number of bytes consumed.
func DecodeMaterials(dst []Material, src []byte) int {
	_ = src[:MaterialSize*len(dst)]
	for i := range dst {
		dst[i] = Material{
			TG: label.FromBytes(src[i*MaterialSize:]),
			TE: label.FromBytes(src[i*MaterialSize+label.Size:]),
		}
	}
	return MaterialSize * len(dst)
}

// Hasher computes the gate-tweakable hash H(L, tweak) used to encrypt
// half-gate rows. Implementations differ in how keys relate to tweaks.
type Hasher interface {
	Hash(l label.L, tweak uint64) label.L
	// Name identifies the construction for benchmarks/reporting.
	Name() string
}

// BatchHasher is the optional batched extension of Hasher the garbling
// loops run on: every hash of one AND gate in a single call, so the
// blocks go through one AES kernel call. Runners resolve it once with
// batched, not per gate; a plain Hasher is adapted through individual
// Hash calls. Results must equal individual Hash calls.
type BatchHasher interface {
	Hasher
	// Hash2 is both hashes of an evaluated gate. The two tweaks are
	// distinct (2j and 2j+1): the win is one kernel call with the two
	// key expansions interleaved.
	Hash2(l0, l1 label.L, t0, t1 uint64) (h0, h1 label.L)
	// Hash4 is all four hashes of a garbled gate; re-keyed, they share
	// two key expansions.
	Hash4(l0, l1, l2, l3 label.L, t0, t1, t2, t3 uint64) (h0, h1, h2, h3 label.L)
}

// batched returns h's batched form, adapting a plain Hasher through
// individual Hash calls.
func batched(h Hasher) BatchHasher {
	if b, ok := h.(BatchHasher); ok {
		return b
	}
	return unbatched{h}
}

type unbatched struct{ Hasher }

func (u unbatched) Hash2(l0, l1 label.L, t0, t1 uint64) (h0, h1 label.L) {
	return u.Hash(l0, t0), u.Hash(l1, t1)
}

func (u unbatched) Hash4(l0, l1, l2, l3 label.L, t0, t1, t2, t3 uint64) (h0, h1, h2, h3 label.L) {
	return u.Hash(l0, t0), u.Hash(l1, t1), u.Hash(l2, t2), u.Hash(l3, t3)
}

// tweakKey derives the per-tweak AES key K(t) = t ‖ ^t (two
// little-endian words) of the re-keyed constructions.
func tweakKey(t uint64) aes128.Block { return aes128.Block{Lo: t, Hi: ^t} }

// RekeyedHasher is the paper's secure construction: the AES key is the
// tweak (gate-index-derived), so every hash pays a key expansion —
// H(L, t) = AES_{K(t)}(L) XOR L. This is what HAAC's hardware pipeline
// implements (key expansion + AES per hash).
//
// It runs on aes128's fresh-key entry points: a garbled gate is one
// FreshKeyPair2 call (two keys, two blocks each), an evaluated gate one
// FreshKeyPair call. It is also the one hasher with the whole-step form
// (step.go), which the VAES tier serves. On the hardware tiers each
// round key is consumed as it is produced and never stored; on the
// T-table tier the schedule lives on the callee's stack. Either way the
// hasher holds no
// state, its zero value is ready to use from any number of goroutines,
// and no call allocates. Labels are passed as they lie in memory (label.L and
// aes128.Block share a layout). Outputs are byte-identical across
// tiers and to crypto/aes — the wire format and golden vectors do not
// depend on the backend.
type RekeyedHasher struct{}

// Hash implements Hasher.
func (RekeyedHasher) Hash(l label.L, tweak uint64) label.L {
	key, blk := tweakKey(tweak), aes128.Block(l)
	aes128.FreshKeyEncrypt(&key, &blk, &blk)
	return label.L(blk).Xor(l)
}

// Hash2 implements BatchHasher.
func (RekeyedHasher) Hash2(l0, l1 label.L, t0, t1 uint64) (h0, h1 label.L) {
	keys := [2]aes128.Block{tweakKey(t0), tweakKey(t1)}
	blk := [2]aes128.Block{aes128.Block(l0), aes128.Block(l1)}
	aes128.FreshKeyPair(&keys, &blk, &blk)
	return label.L(blk[0]).Xor(l0), label.L(blk[1]).Xor(l1)
}

// Hash4 implements BatchHasher. The garbler's four hashes use only two
// distinct keys (t0==t1 and t2==t3 in the half-gate tweak schedule), so
// each key is expanded once for its two blocks; any other tweak pattern
// is hashed as two independent pairs.
func (h RekeyedHasher) Hash4(l0, l1, l2, l3 label.L, t0, t1, t2, t3 uint64) (h0, h1, h2, h3 label.L) {
	if t0 != t1 || t2 != t3 {
		h0, h1 = h.Hash2(l0, l1, t0, t1)
		h2, h3 = h.Hash2(l2, l3, t2, t3)
		return
	}
	keys := [2]aes128.Block{tweakKey(t0), tweakKey(t2)}
	blk := [4]aes128.Block{aes128.Block(l0), aes128.Block(l1), aes128.Block(l2), aes128.Block(l3)}
	aes128.FreshKeyPair2(&keys, &blk, &blk)
	return label.L(blk[0]).Xor(l0), label.L(blk[1]).Xor(l1), label.L(blk[2]).Xor(l2), label.L(blk[3]).Xor(l3)
}

// Name implements Hasher.
func (RekeyedHasher) Name() string { return "rekeyed" }

// SoftRekeyedHasher is RekeyedHasher pinned to the aes128 T-table tier
// whatever the host offers. It produces the same hashes and is not a
// serving option: it is the software reference the hardware tier is
// tested against, and the T-table numerator of the re-keying overhead
// experiment (beside SoftFixedKeyHasher, its matched denominator).
type SoftRekeyedHasher struct{}

// softPair hashes two labels under two tweaks on the T-table tier,
// expanding the second key only when it differs.
func softPair(l0, l1 label.L, t0, t1 uint64) (label.L, label.L) {
	var ks aes128.Schedule
	key, b0, b1 := tweakKey(t0), aes128.Block(l0), aes128.Block(l1)
	ks.ExpandFromBlock(&key)
	ks.EncryptBlockTo(&b0, &b0)
	if t1 != t0 {
		key = tweakKey(t1)
		ks.ExpandFromBlock(&key)
	}
	ks.EncryptBlockTo(&b1, &b1)
	return label.L(b0).Xor(l0), label.L(b1).Xor(l1)
}

// Hash implements Hasher.
func (SoftRekeyedHasher) Hash(l label.L, tweak uint64) label.L {
	var ks aes128.Schedule
	key, blk := tweakKey(tweak), aes128.Block(l)
	ks.ExpandFromBlock(&key)
	ks.EncryptBlockTo(&blk, &blk)
	return label.L(blk).Xor(l)
}

// Hash2 implements BatchHasher.
func (SoftRekeyedHasher) Hash2(l0, l1 label.L, t0, t1 uint64) (h0, h1 label.L) {
	return softPair(l0, l1, t0, t1)
}

// Hash4 implements BatchHasher: two expansions for the garbler's four
// hashes, the schedule reuse RekeyedHasher gets from FreshKeyPair2.
func (SoftRekeyedHasher) Hash4(l0, l1, l2, l3 label.L, t0, t1, t2, t3 uint64) (h0, h1, h2, h3 label.L) {
	h0, h1 = softPair(l0, l1, t0, t1)
	h2, h3 = softPair(l2, l3, t2, t3)
	return
}

// Name implements Hasher.
func (SoftRekeyedHasher) Name() string { return "rekeyed-soft" }

// FixedKeyHasher is the classic fixed-key construction (JustGarble
// style): H(L, t) = AES_K(2L xor t) xor 2L xor t with one global key.
// It is faster but, as the paper notes, offers weaker concrete security;
// it exists here to reproduce the §2.1 "+27.5%" re-keying overhead
// comparison, and as the reference internal/ot's chunk-wide
// correlation-robust row hash is pinned to.
// The key is expanded once into an aes128.Cipher, which runs on the
// same tier as RekeyedHasher and is safe to share across goroutines.
type FixedKeyHasher struct {
	c *aes128.Cipher
}

// NewFixedKeyHasher builds a FixedKeyHasher with the given global key.
func NewFixedKeyHasher(key [16]byte) *FixedKeyHasher {
	return &FixedKeyHasher{c: aes128.NewCipher(aes128.LoadBlock(key[:]))}
}

// double computes the 2L xor t input block of the fixed-key hash.
func double(l label.L, tweak uint64) label.L {
	return label.L{Lo: l.Lo<<1 ^ tweak, Hi: l.Hi<<1 | l.Lo>>63}
}

// Hash implements Hasher.
func (h *FixedKeyHasher) Hash(l label.L, tweak uint64) label.L {
	d := double(l, tweak)
	blk := [1]aes128.Block{aes128.Block(d)}
	h.c.Encrypt(blk[:], blk[:])
	return label.L(blk[0]).Xor(d)
}

// Hash2 implements BatchHasher: both blocks in one multi-block call.
func (h *FixedKeyHasher) Hash2(l0, l1 label.L, t0, t1 uint64) (h0, h1 label.L) {
	d0, d1 := double(l0, t0), double(l1, t1)
	blk := [2]aes128.Block{aes128.Block(d0), aes128.Block(d1)}
	h.c.Encrypt(blk[:], blk[:])
	return label.L(blk[0]).Xor(d0), label.L(blk[1]).Xor(d1)
}

// Hash4 implements BatchHasher: the four blocks of one AND gate in one
// multi-block call, pipelined through the cipher on the AES-NI tier.
func (h *FixedKeyHasher) Hash4(l0, l1, l2, l3 label.L, t0, t1, t2, t3 uint64) (h0, h1, h2, h3 label.L) {
	d0, d1, d2, d3 := double(l0, t0), double(l1, t1), double(l2, t2), double(l3, t3)
	blk := [4]aes128.Block{aes128.Block(d0), aes128.Block(d1), aes128.Block(d2), aes128.Block(d3)}
	h.c.Encrypt(blk[:], blk[:])
	return label.L(blk[0]).Xor(d0), label.L(blk[1]).Xor(d1), label.L(blk[2]).Xor(d2), label.L(blk[3]).Xor(d3)
}

// Name implements Hasher.
func (h *FixedKeyHasher) Name() string { return "fixed-key" }

// SoftFixedKeyHasher is FixedKeyHasher pinned to the aes128 T-table
// tier. It produces the same hashes (AES is AES) but pays software
// block costs, which makes it the matched-backend denominator for
// SoftRekeyedHasher in the re-keying overhead experiment: comparing a
// software re-keyed hash against a hardware fixed-key one would
// confound re-keying with the AES implementation, while the two Soft
// hashers isolate the pure key-expansion surcharge the paper
// quantifies as +27.5%.
type SoftFixedKeyHasher struct {
	ks aes128.Schedule
}

// NewSoftFixedKeyHasher builds a SoftFixedKeyHasher with the given
// global key, expanded once at construction.
func NewSoftFixedKeyHasher(key [16]byte) *SoftFixedKeyHasher {
	h := &SoftFixedKeyHasher{}
	h.ks.ExpandFrom(&key)
	return h
}

// Hash implements Hasher.
func (h *SoftFixedKeyHasher) Hash(l label.L, tweak uint64) label.L {
	d := double(l, tweak)
	blk := aes128.Block(d)
	h.ks.EncryptBlockTo(&blk, &blk)
	return label.L(blk).Xor(d)
}

// Hash2 implements BatchHasher.
func (h *SoftFixedKeyHasher) Hash2(l0, l1 label.L, t0, t1 uint64) (h0, h1 label.L) {
	return h.Hash(l0, t0), h.Hash(l1, t1)
}

// Hash4 implements BatchHasher.
func (h *SoftFixedKeyHasher) Hash4(l0, l1, l2, l3 label.L, t0, t1, t2, t3 uint64) (h0, h1, h2, h3 label.L) {
	return h.Hash(l0, t0), h.Hash(l1, t1), h.Hash(l2, t2), h.Hash(l3, t3)
}

// Name implements Hasher.
func (h *SoftFixedKeyHasher) Name() string { return "fixed-key-soft" }

// GarbleAND garbles a single AND gate: given the input zero-labels and
// the FreeXOR offset it returns the gate's table and output zero-label.
// tweak must be unique per gate (HAAC uses the instruction's output
// wire address, which the PC determines). Exported for the HAAC
// compiler's program-order garbling.
func GarbleAND(h Hasher, a0, b0, r label.L, tweak uint64) (Material, label.L) {
	return garbleAND(h, a0, b0, r, tweak)
}

// EvalAND evaluates a single AND gate from the active input labels and
// the gate's table, under the same tweak used to garble it.
func EvalAND(h Hasher, a, b label.L, m Material, tweak uint64) label.L {
	return evalAND(h, a, b, m, tweak)
}

// garbleAND is garbleGate for a hasher not yet resolved to its batched
// form; loops resolve once and call garbleGate directly.
func garbleAND(h Hasher, a0, b0, r label.L, j uint64) (Material, label.L) {
	return garbleGate(batched(h), a0, b0, r, j)
}

// evalAND is the evalGate counterpart of garbleAND.
func evalAND(h Hasher, a, b label.L, m Material, j uint64) label.L {
	return evalGate(batched(h), a, b, m, j)
}

// garbleGate produces the two half-gate rows and the output zero-label
// for an AND gate with input zero-labels a0, b0 under offset r.
// Gate index j provides the two hash tweaks 2j and 2j+1.
func garbleGate(h BatchHasher, a0, b0, r label.L, j uint64) (Material, label.L) {
	ha0, ha1, hb0, hb1 := h.Hash4(a0, a0.Xor(r), b0, b0.Xor(r), 2*j, 2*j, 2*j+1, 2*j+1)
	return garbleRows(ha0, ha1, hb0, hb1, a0, b0, r)
}

// garbleRows combines the four hashes of a gate — H(a0), H(a1), H(b0),
// H(b1) — into its table and output zero-label.
func garbleRows(ha0, ha1, hb0, hb1, a0, b0, r label.L) (Material, label.L) {
	pa := a0.Colour()
	pb := b0.Colour()

	// Garbler half: handles the evaluator-known colour of wire A.
	tg := ha0.Xor(ha1)
	if pb == 1 {
		tg = tg.Xor(r)
	}
	wg := ha0
	if pa == 1 {
		wg = wg.Xor(tg)
	}

	// Evaluator half.
	te := hb0.Xor(hb1).Xor(a0)
	we := hb0
	if pb == 1 {
		we = we.Xor(te.Xor(a0))
	}

	return Material{TG: tg, TE: te}, wg.Xor(we)
}

// evalGate computes the output label from the two input labels and the
// gate's table, using the labels' colour bits to select rows.
func evalGate(h BatchHasher, a, b label.L, m Material, j uint64) label.L {
	wg, we := h.Hash2(a, b, 2*j, 2*j+1)
	return evalRows(wg, we, a, b, m)
}

// evalRows combines the two hashes of a gate — H(a), H(b) — with the
// table rows the colour bits select.
func evalRows(wg, we, a, b label.L, m Material) label.L {
	if a.Colour() == 1 {
		wg = wg.Xor(m.TG)
	}
	if b.Colour() == 1 {
		we = we.Xor(m.TE.Xor(a))
	}
	return wg.Xor(we)
}

// checkHalfGates validates the construction over all four plaintext
// input combinations; the tests run it over every hasher and the golden
// vectors.
func checkHalfGates(h Hasher, a0, b0, r label.L, j uint64) error {
	m, c0 := garbleAND(h, a0, b0, r, j)
	for va := 0; va < 2; va++ {
		for vb := 0; vb < 2; vb++ {
			a := a0
			if va == 1 {
				a = a.Xor(r)
			}
			b := b0
			if vb == 1 {
				b = b.Xor(r)
			}
			got := evalAND(h, a, b, m, j)
			want := c0
			if va&vb == 1 {
				want = want.Xor(r)
			}
			if got != want {
				return fmt.Errorf("gc: half-gate mismatch at a=%d b=%d", va, vb)
			}
		}
	}
	return nil
}
