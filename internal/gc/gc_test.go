package gc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"haac/internal/builder"
	"haac/internal/circuit"
	"haac/internal/label"
	"haac/internal/workloads"
)

func hashers() map[string]Hasher {
	return map[string]Hasher{
		"rekeyed":   RekeyedHasher{},
		"fixed-key": NewFixedKeyHasher([16]byte{1, 2, 3}),
	}
}

// runReference garbles, encodes, evaluates and decodes in one step on
// the reference path.
func runReference(c *circuit.Circuit, h Hasher, seed uint64, garbler, evaluator []bool) ([]bool, error) {
	src := label.NewSource(seed)
	g, err := Garble(c, h, src)
	if err != nil {
		return nil, err
	}
	in, err := g.EncodeInputs(c, garbler, evaluator)
	if err != nil {
		return nil, err
	}
	out, err := Evaluate(c, h, in, g.Tables)
	if err != nil {
		return nil, err
	}
	return g.Decode(out)
}

func TestHalfGateAllInputs(t *testing.T) {
	for name, h := range hashers() {
		src := label.NewSource(99)
		r := src.NextDelta()
		for j := uint64(0); j < 16; j++ {
			if err := checkHalfGates(h, src.Next(), src.Next(), r, j); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestGarbleMatchesPlaintextRandomCircuits(t *testing.T) {
	// Property: garbled evaluation == plaintext evaluation on random
	// circuits. This is the "verified against EMP" criterion of §5.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		c := randomCircuit(rng, 4+rng.Intn(5), 4+rng.Intn(5), 30+rng.Intn(60))
		g := randBits(rng, c.GarblerInputs)
		e := randBits(rng, c.EvaluatorInputs)
		want, err := c.Eval(g, e)
		if err != nil {
			t.Fatal(err)
		}
		for name, h := range hashers() {
			got, err := runReference(c, h, uint64(trial)+7, g, e)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d: output %d mismatch", name, trial, i)
				}
			}
		}
	}
}

func TestGarbleWorkloads(t *testing.T) {
	for _, w := range workloads.VIPSuiteSmall() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if w.Name == "BubbSt" || w.Name == "GradDesc" {
				t.Skip("covered by integration tests; slow under -race")
			}
			c := w.Build()
			g, e := w.Inputs(3)
			want := w.Reference(g, e)
			got, err := runReference(c, RekeyedHasher{}, 11, g, e)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("output bit %d mismatch", i)
				}
			}
		})
	}
}

func TestCorruptedTableDetected(t *testing.T) {
	b := builder.New()
	x := b.GarblerInputs(8)
	y := b.EvaluatorInputs(8)
	b.OutputWord(b.Mul(x, y))
	c := b.MustBuild()

	src := label.NewSource(5)
	garbled, err := Garble(c, RekeyedHasher{}, src)
	if err != nil {
		t.Fatal(err)
	}
	in, err := garbled.EncodeInputs(c, circuit.UintToBools(123, 8), circuit.UintToBools(45, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in one table: decoding must fail (invalid label).
	garbled.Tables[3].TG.Lo ^= 1 << 17
	out, err := Evaluate(c, RekeyedHasher{}, in, garbled.Tables)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := garbled.Decode(out); err == nil {
		t.Fatal("corrupted table went undetected")
	}
}

func TestTableStreamLengthChecked(t *testing.T) {
	b := builder.New()
	x := b.GarblerInputs(4)
	y := b.EvaluatorInputs(4)
	b.Output(b.AND(b.AND(x[0], y[0]), b.AND(x[1], y[1])))
	c := b.MustBuild()
	src := label.NewSource(5)
	garbled, _ := Garble(c, RekeyedHasher{}, src)
	in, _ := garbled.EncodeInputs(c, []bool{true, true, false, false}, []bool{true, true, false, false})
	if _, err := Evaluate(c, RekeyedHasher{}, in, garbled.Tables[:1]); err == nil {
		t.Fatal("truncated table stream accepted")
	}
	extra := append(append([]Material(nil), garbled.Tables...), Material{})
	if _, err := Evaluate(c, RekeyedHasher{}, in, extra); err == nil {
		t.Fatal("over-long table stream accepted")
	}
}

func TestFreeXORInvariant(t *testing.T) {
	// For every wire the two labels differ by exactly R.
	b := builder.New()
	x := b.GarblerInputs(4)
	y := b.EvaluatorInputs(4)
	b.OutputWord(b.Add(x, y))
	c := b.MustBuild()
	src := label.NewSource(42)
	garbled, err := Garble(c, RekeyedHasher{}, src)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate twice with one evaluator bit flipped; output labels must
	// differ by 0 or R only.
	g := []bool{true, false, true, false}
	e1 := []bool{false, false, false, false}
	e2 := []bool{true, false, false, false}
	in1, _ := garbled.EncodeInputs(c, g, e1)
	in2, _ := garbled.EncodeInputs(c, g, e2)
	o1, _ := Evaluate(c, RekeyedHasher{}, in1, garbled.Tables)
	o2, _ := Evaluate(c, RekeyedHasher{}, in2, garbled.Tables)
	for i := range o1 {
		d := o1[i].Xor(o2[i])
		if !d.IsZero() && d != garbled.R {
			t.Fatalf("output %d labels differ by something other than R", i)
		}
	}
}

func TestMaterialSerialization(t *testing.T) {
	f := func(a, b label.L) bool {
		m := Material{TG: a, TE: b}
		buf := m.Bytes()
		var got [1]Material
		DecodeMaterials(got[:], buf[:])
		return got[0] == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// randomCircuit generates a random valid circuit.
func randomCircuit(rng *rand.Rand, ng, ne, gates int) *circuit.Circuit {
	c := &circuit.Circuit{
		GarblerInputs:   ng,
		EvaluatorInputs: ne,
	}
	for i := 0; i < gates; i++ {
		out := circuit.Wire(ng + ne + i)
		a := circuit.Wire(rng.Intn(int(out)))
		bb := circuit.Wire(rng.Intn(int(out)))
		op := []circuit.Op{circuit.XOR, circuit.AND, circuit.INV}[rng.Intn(3)]
		c.Gates = append(c.Gates, circuit.Gate{Op: op, A: a, B: bb})
	}
	// A few random outputs from the tail.
	for i := 0; i < 3; i++ {
		c.Outputs = append(c.Outputs, circuit.Wire(c.NumWires()-1-i))
	}
	return c
}

func randBits(rng *rand.Rand, n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = rng.Intn(2) == 1
	}
	return b
}

func BenchmarkGarbleANDRekeyed(b *testing.B) {
	src := label.NewSource(1)
	r := src.NextDelta()
	a0, b0 := src.Next(), src.Next()
	h := RekeyedHasher{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		garbleAND(h, a0, b0, r, uint64(i))
	}
}

func BenchmarkGarbleANDFixedKey(b *testing.B) {
	src := label.NewSource(1)
	r := src.NextDelta()
	a0, b0 := src.Next(), src.Next()
	h := NewFixedKeyHasher([16]byte{9})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		garbleAND(h, a0, b0, r, uint64(i))
	}
}

// BenchmarkGarbleANDFixedKeySoft is the matched-backend denominator for
// the re-keying overhead: the same T-table AES as the re-keyed hasher,
// without the per-gate key expansions.
func BenchmarkGarbleANDFixedKeySoft(b *testing.B) {
	src := label.NewSource(1)
	r := src.NextDelta()
	a0, b0 := src.Next(), src.Next()
	h := NewSoftFixedKeyHasher([16]byte{9})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		garbleAND(h, a0, b0, r, uint64(i))
	}
}

func BenchmarkEvalANDRekeyed(b *testing.B) {
	src := label.NewSource(1)
	r := src.NextDelta()
	a0, b0 := src.Next(), src.Next()
	h := RekeyedHasher{}
	m, _ := garbleAND(h, a0, b0, r, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		evalAND(h, a0, b0, m, 1)
	}
}
