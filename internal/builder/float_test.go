package builder

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"haac/internal/softfloat"
)

// fEval compiles a binary float op into an evaluator over raw bits.
func fEval(t *testing.T, f func(b *B, x, y Word) Word) func(x, y uint32) uint32 {
	t.Helper()
	b := New()
	x := b.GarblerInputs(32)
	y := b.EvaluatorInputs(32)
	b.OutputWord(f(b, x, y))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return func(xv, yv uint32) uint32 {
		out, err := c.EvalUint([]uint64{uint64(xv)}, []uint64{uint64(yv)}, 32)
		if err != nil {
			t.Fatal(err)
		}
		return uint32(out[0])
	}
}

// normalFloat draws finite, non-subnormal float bit patterns (the domain
// the softfloat semantics are defined over).
func normalFloat(rng *rand.Rand) uint32 {
	for {
		b := rng.Uint32()
		e := b >> 23 & 0xff
		if e != 0 && e != 255 {
			return b
		}
		if e == 0 {
			return b & 0x80000000 // signed zero
		}
	}
}

func TestFMulMatchesSoftfloat(t *testing.T) {
	mul := fEval(t, func(b *B, x, y Word) Word { return b.FMul(x, y) })
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 400; i++ {
		a, c := normalFloat(rng), normalFloat(rng)
		got, want := mul(a, c), softfloat.Mul(a, c)
		if got != want {
			t.Fatalf("FMul(%08x,%08x) = %08x, want %08x (%v*%v)",
				a, c, got, want, math.Float32frombits(a), math.Float32frombits(c))
		}
	}
}

func TestFAddMatchesSoftfloat(t *testing.T) {
	add := fEval(t, func(b *B, x, y Word) Word { return b.FAdd(x, y) })
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 400; i++ {
		a, c := normalFloat(rng), normalFloat(rng)
		got, want := add(a, c), softfloat.Add(a, c)
		if got != want {
			t.Fatalf("FAdd(%08x,%08x) = %08x, want %08x (%v+%v)",
				a, c, got, want, math.Float32frombits(a), math.Float32frombits(c))
		}
	}
}

func TestFAddSpecialCases(t *testing.T) {
	add := fEval(t, func(b *B, x, y Word) Word { return b.FAdd(x, y) })
	sub := fEval(t, func(b *B, x, y Word) Word { return b.FSub(x, y) })
	cases := [][2]float32{
		{0, 0}, {1, 0}, {0, 1}, {-1, 1}, {1, -1},
		{1, 1}, {1.5, 1.0}, {0.5, 0.25},
		{3.4e38, 3.4e38},  // overflow to inf
		{1e-38, -0.9e-38}, // tiny difference, possible FTZ
		{123456, -123456}, // exact cancellation
		{1e20, 1},         // complete absorption of the small operand
		{-2.5, -2.5},
	}
	for _, cse := range cases {
		a := softfloat.FromFloat32(cse[0])
		b := softfloat.FromFloat32(cse[1])
		if got, want := add(a, b), softfloat.Add(a, b); got != want {
			t.Errorf("FAdd(%v,%v) = %08x, want %08x", cse[0], cse[1], got, want)
		}
		if got, want := sub(a, b), softfloat.Sub(a, b); got != want {
			t.Errorf("FSub(%v,%v) = %08x, want %08x", cse[0], cse[1], got, want)
		}
	}
}

func TestFMulSpecialCases(t *testing.T) {
	mul := fEval(t, func(b *B, x, y Word) Word { return b.FMul(x, y) })
	cases := [][2]float32{
		{0, 5}, {5, 0}, {0, 0}, {-0, 3},
		{1, 1}, {2, 3}, {-2, 3}, {0.5, 0.5},
		{3e38, 3e38},   // overflow
		{1e-30, 1e-30}, // underflow to zero
		{1.0000001, 1.0000001},
	}
	for _, cse := range cases {
		a := softfloat.FromFloat32(cse[0])
		b := softfloat.FromFloat32(cse[1])
		if got, want := mul(a, b), softfloat.Mul(a, b); got != want {
			t.Errorf("FMul(%v,%v) = %08x, want %08x", cse[0], cse[1], got, want)
		}
	}
}

func TestSoftfloatNearNative(t *testing.T) {
	// Softfloat truncates, so it may differ from the native
	// round-to-nearest result by a few ULPs; check relative error instead
	// of exact equality. This anchors the oracle itself to IEEE floats.
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) ||
			math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) {
			return true
		}
		sum := float64(math.Float32frombits(softfloat.Add(softfloat.FromFloat32(a), softfloat.FromFloat32(b))))
		want := float64(a) + float64(b)
		if math.Abs(want) < 1e-35 || math.Abs(want) > 1e35 {
			return true // near FTZ or overflow boundaries
		}
		return math.Abs(sum-want) <= math.Abs(want)*1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	g := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) ||
			math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) {
			return true
		}
		prod := float64(math.Float32frombits(softfloat.Mul(softfloat.FromFloat32(a), softfloat.FromFloat32(b))))
		want := float64(a) * float64(b)
		if math.Abs(want) < 1e-35 || math.Abs(want) > 1e35 {
			return true
		}
		return math.Abs(prod-want) <= math.Abs(want)*1e-5
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFNegIsFree(t *testing.T) {
	b := New()
	x := b.GarblerInputs(32)
	before := b.NumGates()
	_ = b.FNeg(x)
	// FNeg costs exactly one INV gate (cached thereafter).
	if got := b.NumGates() - before; got != 1 {
		t.Fatalf("FNeg emitted %d gates, want 1", got)
	}
}
