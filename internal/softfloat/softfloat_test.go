package softfloat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMulExactCases(t *testing.T) {
	cases := []struct{ a, b, want float32 }{
		{1, 1, 1}, {2, 3, 6}, {-2, 3, -6}, {0.5, 0.5, 0.25},
		{0, 5, 0}, {5, 0, 0}, {1.5, 2, 3}, {-4, -4, 16},
	}
	for _, c := range cases {
		if got := mulF(c.a, c.b); got != c.want {
			t.Errorf("mulF(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAddExactCases(t *testing.T) {
	cases := []struct{ a, b, want float32 }{
		{1, 1, 2}, {1.5, 1, 2.5}, {0.5, 0.25, 0.75},
		{1, -1, 0}, {-1, 1, 0}, {0, 0, 0}, {3, -1, 2},
		{-2.5, -2.5, -5},
	}
	for _, c := range cases {
		if got := addF(c.a, c.b); got != c.want {
			t.Errorf("addF(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSubIsAddOfNegation(t *testing.T) {
	f := func(a, b uint32) bool {
		return Sub(a, b) == Add(a, neg(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddCommutative(t *testing.T) {
	f := func(af, bf float32) bool {
		a, b := FromFloat32(af), FromFloat32(bf)
		if isBad(a) || isBad(b) {
			return true
		}
		return Add(a, b) == Add(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(af, bf float32) bool {
		a, b := FromFloat32(af), FromFloat32(bf)
		if isBad(a) || isBad(b) {
			return true
		}
		return Mul(a, b) == Mul(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulByOneIsIdentity(t *testing.T) {
	one := FromFloat32(1)
	f := func(af float32) bool {
		a := FromFloat32(af)
		if isBad(a) {
			return true
		}
		return Mul(a, one) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddZeroIsIdentity(t *testing.T) {
	zero := FromFloat32(0)
	f := func(af float32) bool {
		a := FromFloat32(af)
		if isBad(a) {
			return true
		}
		return Add(a, zero) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestOverflowToInf(t *testing.T) {
	big := FromFloat32(3.4e38)
	if got := Add(big, big); got != 0x7f800000 {
		t.Fatalf("overflowing add = %08x, want +inf", got)
	}
	if got := Mul(big, big); got != 0x7f800000 {
		t.Fatalf("overflowing mul = %08x, want +inf", got)
	}
	negBig := neg(big)
	if got := Add(negBig, negBig); got != 0xff800000 {
		t.Fatalf("overflowing negative add = %08x, want -inf", got)
	}
}

func TestUnderflowFTZ(t *testing.T) {
	tiny := FromFloat32(1e-30)
	if got := Mul(tiny, tiny); got != 0 {
		t.Fatalf("underflowing mul = %08x, want +0", got)
	}
	if got := FromFloat32(1e-44); got != 0 { // subnormal flushed on input
		t.Fatalf("subnormal not flushed: %08x", got)
	}
}

func TestExactCancellationIsPositiveZero(t *testing.T) {
	a := FromFloat32(123456)
	if got := Add(a, neg(a)); got != 0 {
		t.Fatalf("x + (-x) = %08x, want +0", got)
	}
}

// mulF and addF run Mul and Add on native float32 values.
func mulF(a, b float32) float32 {
	return math.Float32frombits(Mul(FromFloat32(a), FromFloat32(b)))
}

func addF(a, b float32) float32 {
	return math.Float32frombits(Add(FromFloat32(a), FromFloat32(b)))
}

// neg flips the sign bit.
func neg(a uint32) uint32 { return a ^ 0x80000000 }

// isBad filters NaN/inf inputs, which the semantics don't cover.
func isBad(b uint32) bool { return b>>23&0xff == 255 }

func TestNearNativeSum(t *testing.T) {
	// Against native float64 arithmetic the truncating softfloat result
	// must be within 1 ULP-ish relative error.
	vals := []float32{1, -1, 3.25, 1e10, -7.5e-5, 0.1, 2.0 / 3.0}
	for _, a := range vals {
		for _, b := range vals {
			got := float64(addF(a, b))
			want := float64(a) + float64(b)
			if want != 0 && math.Abs(got-want) > math.Abs(want)*1e-6 {
				t.Errorf("addF(%v,%v) = %v, native %v", a, b, got, want)
			}
		}
	}
}
