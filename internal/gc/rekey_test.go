package gc

import (
	"math/rand"
	"testing"

	"haac/internal/circuit"
	"haac/internal/label"
	"haac/internal/workloads"
)

// Equality and allocation regressions for the batched hash paths. The
// batched Hash2/Hash4 entry points must be drop-in replacements for
// individual Hash calls (the golden vectors pin the absolute outputs;
// these tests pin the batching itself on random inputs), each
// construction must hash the same on the live aes128 tier and on the
// pinned T-table one, and no hash entry point may allocate. The
// whole-step form has its own tests in step_test.go.

// batchedHashers returns every hasher with a batched path: both
// constructions, each on the live tier and pinned to the T-table one.
func batchedHashers() []Hasher {
	key := [16]byte{0x5a, 9, 8, 7}
	return []Hasher{
		RekeyedHasher{},
		SoftRekeyedHasher{},
		NewFixedKeyHasher(key),
		NewSoftFixedKeyHasher(key),
	}
}

func randLabel(rng *rand.Rand) label.L {
	return label.L{Lo: rng.Uint64(), Hi: rng.Uint64()}
}

func TestHash4MatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, h := range batchedHashers() {
		h4, ok := h.(BatchHasher)
		if !ok {
			t.Fatalf("%s does not implement BatchHasher", h.Name())
		}
		for i := 0; i < 50; i++ {
			l0, l1, l2, l3 := randLabel(rng), randLabel(rng), randLabel(rng), randLabel(rng)
			// The garbler pattern (t0==t1, t2==t3) plus fully distinct
			// tweaks, so both schedule-reuse branches are exercised.
			t0 := rng.Uint64()
			t2 := rng.Uint64()
			tweaks := [][4]uint64{{t0, t0, t2, t2}, {t0, t2, t0 + 1, t2 + 1}}
			for _, tw := range tweaks {
				g0, g1, g2, g3 := h4.Hash4(l0, l1, l2, l3, tw[0], tw[1], tw[2], tw[3])
				w0, w1 := h.Hash(l0, tw[0]), h.Hash(l1, tw[1])
				w2, w3 := h.Hash(l2, tw[2]), h.Hash(l3, tw[3])
				if g0 != w0 || g1 != w1 || g2 != w2 || g3 != w3 {
					t.Fatalf("%s: Hash4%v diverges from individual hashes", h.Name(), tw)
				}
			}
		}
	}
}

func TestHash2MatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, h := range batchedHashers() {
		h2, ok := h.(BatchHasher)
		if !ok {
			t.Fatalf("%s does not implement BatchHasher", h.Name())
		}
		for i := 0; i < 50; i++ {
			l0, l1 := randLabel(rng), randLabel(rng)
			t0 := rng.Uint64()
			for _, t1 := range []uint64{t0, t0 + 1, rng.Uint64()} {
				g0, g1 := h2.Hash2(l0, l1, t0, t1)
				if w0, w1 := h.Hash(l0, t0), h.Hash(l1, t1); g0 != w0 || g1 != w1 {
					t.Fatalf("%s: Hash2(t0=%d,t1=%d) diverges from individual hashes", h.Name(), t0, t1)
				}
			}
		}
	}
}

// TestLiveTierMatchesTTable: for both constructions, every one-gate
// entry point of the hasher on the live aes128 tier equals the T-table
// reference (TestStepMatchesOneGatePath does the same for the step form).
// On an AES-NI host this is the hardware-vs-software check at the hash
// level; under -tags purego it degenerates to a self-check.
func TestLiveTierMatchesTTable(t *testing.T) {
	key := [16]byte{3, 1, 4, 1, 5, 9, 2, 6}
	pairs := []struct{ live, soft BatchHasher }{
		{RekeyedHasher{}, SoftRekeyedHasher{}},
		{NewFixedKeyHasher(key), NewSoftFixedKeyHasher(key)},
	}
	rng := rand.New(rand.NewSource(23))
	for _, p := range pairs {
		for i := 0; i < 100; i++ {
			l0, l1, l2, l3 := randLabel(rng), randLabel(rng), randLabel(rng), randLabel(rng)
			t0, t1 := 2*rng.Uint64(), rng.Uint64()
			if p.live.Hash(l0, t1) != p.soft.Hash(l0, t1) {
				t.Fatalf("%s: Hash diverges from %s at tweak %d", p.live.Name(), p.soft.Name(), t1)
			}
			g0, g1 := p.live.Hash2(l0, l1, t0, t0+1)
			w0, w1 := p.soft.Hash2(l0, l1, t0, t0+1)
			if g0 != w0 || g1 != w1 {
				t.Fatalf("%s: Hash2 diverges from %s at tweak %d", p.live.Name(), p.soft.Name(), t0)
			}
			a0, a1, a2, a3 := p.live.Hash4(l0, l1, l2, l3, t0, t0, t0+1, t0+1)
			b0, b1, b2, b3 := p.soft.Hash4(l0, l1, l2, l3, t0, t0, t0+1, t0+1)
			if a0 != b0 || a1 != b1 || a2 != b2 || a3 != b3 {
				t.Fatalf("%s: Hash4 diverges from %s at tweak %d", p.live.Name(), p.soft.Name(), t0)
			}
		}
	}
}

// TestCrossTierGarbleEval garbles a VIP-small circuit on one aes128 tier
// and evaluates it on another, all nine ways over the three kernel sets
// a VAES host has: the two-gate kernels (RekeyedHasher through the plan
// engine, one-gate kernels on odd tails), the one-gate AES-NI kernels
// alone (a plain Hasher, hashed call by call) and the T-table code. A
// garbler and an evaluator on different backends interoperate, in the
// reference walk and in the plan engine. On lesser hosts some of the
// three coincide and the test checks less, never something else.
func TestCrossTierGarbleEval(t *testing.T) {
	w := workloads.VIPSuiteSmall()[0]
	c := w.Build()
	p, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	gIn, eIn := w.Inputs(3)
	want := w.Reference(gIn, eIn)
	tiers := []struct {
		name string
		h    Hasher
	}{
		{"two-gate", RekeyedHasher{}},
		{"one-gate", plainHasher{RekeyedHasher{}}},
		{"ttable", SoftRekeyedHasher{}},
	}
	type direction struct {
		name         string
		garble, eval Hasher
	}
	var dirs []direction
	for _, g := range tiers {
		for _, e := range tiers {
			dirs = append(dirs, direction{g.name + "->" + e.name, g.h, e.h})
		}
	}
	for _, dir := range dirs {
		name := dir.name
		garbled, err := GarblePlan(p, dir.garble, label.NewSource(11), 1)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Garble(c, dir.eval, label.NewSource(11))
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Tables {
			if garbled.Tables[i] != ref.Tables[i] {
				t.Fatalf("%s: table %d differs between tiers", name, i)
			}
		}
		inputs, err := garbled.EncodeInputs(c, gIn, eIn)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := EvalPlan(p, dir.eval, inputs, garbled.Tables, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := garbled.Decode(outs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: output bit %d = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
}

// plainHasher hides a hasher's batched methods, so every hash is its own
// one-block kernel call.
type plainHasher struct{ Hasher }

// TestUnbatchedHasherGarblesIdentically: a Hasher without Hash2/Hash4
// goes through the unbatched adapter and produces the same gate.
func TestUnbatchedHasherGarblesIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a0, b0, r := randLabel(rng), randLabel(rng), randLabel(rng)
	r.Lo |= 1
	wantM, wantC := garbleAND(RekeyedHasher{}, a0, b0, r, 9)
	gotM, gotC := garbleAND(plainHasher{RekeyedHasher{}}, a0, b0, r, 9)
	if gotM != wantM || gotC != wantC {
		t.Fatal("unbatched adapter changes the garbled gate")
	}
	if err := checkHalfGates(plainHasher{RekeyedHasher{}}, a0, b0, r, 9); err != nil {
		t.Fatal(err)
	}
}

// TestRekeyedHashNoSteadyStateAllocs: every hash entry point of both
// serving-path hashers runs allocation-free from the first call (there
// is no scratch pool to warm).
func TestRekeyedHashNoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	l0, l1, l2, l3 := label.L{Lo: 1}, label.L{Lo: 2}, label.L{Lo: 3}, label.L{Lo: 4}
	for _, h := range []BatchHasher{RekeyedHasher{}, NewFixedKeyHasher([16]byte{7})} {
		if avg := testing.AllocsPerRun(100, func() { h.Hash(l0, 9) }); avg != 0 {
			t.Errorf("%s: Hash allocates %.1f times", h.Name(), avg)
		}
		if avg := testing.AllocsPerRun(100, func() { h.Hash2(l0, l1, 8, 9) }); avg != 0 {
			t.Errorf("%s: Hash2 allocates %.1f times", h.Name(), avg)
		}
		if avg := testing.AllocsPerRun(100, func() { h.Hash4(l0, l1, l2, l3, 8, 8, 9, 9) }); avg != 0 {
			t.Errorf("%s: Hash4 allocates %.1f times", h.Name(), avg)
		}
	}
}

// TestRekeyedGarbleEvalSteadyStateAllocs is the re-keyed twin of
// proto's fixed-key stream test: the whole garble and eval tight loops
// allocate O(1) per circuit.
func TestRekeyedGarbleEvalSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	w := workloads.DotProduct(4, 16)
	c := w.Build()
	and, _, _ := c.CountOps()
	if and < 500 {
		t.Fatalf("workload too small to detect per-gate allocations (%d ANDs)", and)
	}
	h := RekeyedHasher{}

	garbled, err := Garble(c, h, label.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	g, e := w.Inputs(5)
	inputs, err := garbled.EncodeInputs(c, g, e)
	if err != nil {
		t.Fatal(err)
	}

	garbleAllocs := testing.AllocsPerRun(10, func() {
		if _, err := Garble(c, h, label.NewSource(7)); err != nil {
			t.Fatal(err)
		}
	})
	if garbleAllocs > 50 {
		t.Fatalf("rekeyed garble loop allocates %.0f times for %d ANDs (want O(1) per circuit)", garbleAllocs, and)
	}

	evalAllocs := testing.AllocsPerRun(10, func() {
		if _, err := Evaluate(c, h, inputs, garbled.Tables); err != nil {
			t.Fatal(err)
		}
	})
	if evalAllocs > 50 {
		t.Fatalf("rekeyed eval loop allocates %.0f times for %d ANDs (want O(1) per circuit)", evalAllocs, and)
	}
}

// BenchmarkRekeyedHash4 measures the garbler's per-gate hashing: four
// hashes, two key expansions, zero allocations.
func BenchmarkRekeyedHash4(b *testing.B) {
	h := RekeyedHasher{}
	l0, l1, l2, l3 := label.L{Lo: 1}, label.L{Lo: 2}, label.L{Lo: 3}, label.L{Lo: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t0 := uint64(2 * i)
		h.Hash4(l0, l1, l2, l3, t0, t0, t0+1, t0+1)
	}
}

// BenchmarkRekeyedHash2 measures the evaluator's per-gate hashing: two
// hashes under two distinct keys.
func BenchmarkRekeyedHash2(b *testing.B) {
	h := RekeyedHasher{}
	l0, l1 := label.L{Lo: 1}, label.L{Lo: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t0 := uint64(2 * i)
		h.Hash2(l0, l1, t0, t0+1)
	}
}

// BenchmarkRekeyedGarble garbles a whole circuit with the paper's
// re-keyed hash; allocs/op is O(1) per circuit (wire arrays), not per
// gate.
func BenchmarkRekeyedGarble(b *testing.B) {
	c := workloads.DotProduct(4, 16).Build()
	and, _, _ := c.CountOps()
	h := RekeyedHasher{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Garble(c, h, label.NewSource(7)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(and)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MAND/s")
}

// BenchmarkRekeyedEval is the evaluator-side counterpart.
func BenchmarkRekeyedEval(b *testing.B) {
	w := workloads.DotProduct(4, 16)
	c := w.Build()
	and, _, _ := c.CountOps()
	h := RekeyedHasher{}
	garbled, err := Garble(c, h, label.NewSource(7))
	if err != nil {
		b.Fatal(err)
	}
	g, e := w.Inputs(5)
	inputs, err := garbled.EncodeInputs(c, g, e)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(c, h, inputs, garbled.Tables); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(and)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MAND/s")
}
