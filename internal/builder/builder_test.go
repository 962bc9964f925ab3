package builder

import (
	"math/rand"
	"testing"
	"testing/quick"

	"haac/internal/circuit"
)

// evalBin builds a circuit computing f over two w-bit garbler/evaluator
// inputs and returns a closure evaluating it on concrete values.
func evalBin(t *testing.T, w int, f func(b *B, x, y Word) Word) func(x, y uint64) uint64 {
	t.Helper()
	b := New()
	x := b.GarblerInputs(w)
	y := b.EvaluatorInputs(w)
	b.OutputWord(f(b, x, y))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return func(xv, yv uint64) uint64 {
		out, err := c.EvalUint([]uint64{xv}, []uint64{yv}, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 && len(c.Outputs)%w != 0 {
			t.Fatalf("unexpected output shape")
		}
		return out[0]
	}
}

// evalPred is evalBin for single-bit predicates.
func evalPred(t *testing.T, w int, f func(b *B, x, y Word) Wire) func(x, y uint64) bool {
	t.Helper()
	b := New()
	x := b.GarblerInputs(w)
	y := b.EvaluatorInputs(w)
	b.Output(f(b, x, y))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return func(xv, yv uint64) bool {
		g := circuit.UintToBools(xv, w)
		e := circuit.UintToBools(yv, w)
		out, err := c.Eval(g, e)
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
}

const w32mask = (1 << 32) - 1

func TestAdd(t *testing.T) {
	add := evalBin(t, 32, func(b *B, x, y Word) Word { return b.Add(x, y) })
	f := func(x, y uint32) bool { return add(uint64(x), uint64(y)) == uint64(x+y) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSub(t *testing.T) {
	sub := evalBin(t, 32, func(b *B, x, y Word) Word { return b.Sub(x, y) })
	f := func(x, y uint32) bool { return sub(uint64(x), uint64(y)) == uint64(x-y) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMul(t *testing.T) {
	mul := evalBin(t, 32, func(b *B, x, y Word) Word { return b.Mul(x, y) })
	f := func(x, y uint32) bool { return mul(uint64(x), uint64(y)) == uint64(x*y) }
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMulFull(t *testing.T) {
	b := New()
	x := b.GarblerInputs(16)
	y := b.EvaluatorInputs(16)
	b.OutputWord(b.MulFull(x, y))
	c := b.MustBuild()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		xv := uint64(rng.Uint32() & 0xffff)
		yv := uint64(rng.Uint32() & 0xffff)
		out, err := c.EvalUint([]uint64{xv}, []uint64{yv}, 16)
		if err != nil {
			t.Fatal(err)
		}
		got := out[0] | out[1]<<16
		if got != xv*yv {
			t.Fatalf("MulFull(%d,%d) = %d, want %d", xv, yv, got, xv*yv)
		}
	}
}

func TestComparisons(t *testing.T) {
	ltu := evalPred(t, 32, func(b *B, x, y Word) Wire { return b.LtU(x, y) })
	lts := evalPred(t, 32, func(b *B, x, y Word) Wire { return b.LtS(x, y) })
	eq := evalPred(t, 32, func(b *B, x, y Word) Wire { return b.IsZero(b.XORWords(x, y)) })
	const k = 0x9e3779b9
	eqk := evalPred(t, 32, func(b *B, x, _ Word) Wire { return b.EqConst(x, k) })
	f := func(x, y uint32) bool {
		if ltu(uint64(x), uint64(y)) != (x < y) {
			return false
		}
		if lts(uint64(x), uint64(y)) != (int32(x) < int32(y)) {
			return false
		}
		if eq(uint64(x), uint64(y)) != (x == y) {
			return false
		}
		if eqk(uint64(x), 0) != (x == k) || !eqk(k, uint64(y)) {
			return false
		}
		return eq(uint64(x), uint64(x)) // reflexive equality
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMuxAndMinMax(t *testing.T) {
	mx := evalBin(t, 16, func(b *B, x, y Word) Word { return b.MuxWord(b.LtU(x, y), y, x) })
	mn := evalBin(t, 16, func(b *B, x, y Word) Word { return b.MuxWord(b.LtU(x, y), x, y) })
	f := func(x, y uint16) bool {
		xv, yv := uint64(x), uint64(y)
		wantMax, wantMin := xv, yv
		if yv > xv {
			wantMax, wantMin = yv, xv
		}
		return mx(xv, yv) == wantMax && mn(xv, yv) == wantMin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortPair(t *testing.T) {
	b := New()
	x := b.GarblerInputs(16)
	y := b.EvaluatorInputs(16)
	lo, hi := b.SortPair(x, y)
	b.OutputWord(lo)
	b.OutputWord(hi)
	c := b.MustBuild()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		xv, yv := uint64(rng.Uint32()&0xffff), uint64(rng.Uint32()&0xffff)
		out, err := c.EvalUint([]uint64{xv}, []uint64{yv}, 16)
		if err != nil {
			t.Fatal(err)
		}
		wantLo, wantHi := xv, yv
		if yv < xv {
			wantLo, wantHi = yv, xv
		}
		if out[0] != wantLo || out[1] != wantHi {
			t.Fatalf("SortPair(%d,%d) = (%d,%d)", xv, yv, out[0], out[1])
		}
	}
}

func TestShrArithConst(t *testing.T) {
	b := New()
	x := b.GarblerInputs(8)
	b.OutputWord(b.ShrArithConst(x, 3))
	c := b.MustBuild()
	for _, v := range []int8{0, 1, -1, 127, -128, 40, -40} {
		out, err := c.EvalUint([]uint64{uint64(uint8(v))}, nil, 8)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(uint8(v >> 3))
		if out[0] != want {
			t.Fatalf("ShrArith(%d,3) = %#x, want %#x", v, out[0], want)
		}
	}
}

func TestExtend(t *testing.T) {
	b := New()
	x := b.GarblerInputs(8)
	b.OutputWord(b.ExtendSign(x, 16))
	b.OutputWord(b.ExtendZero(x, 16))
	b.OutputWord(b.ExtendSign(x, 4)) // narrower: truncates
	b.OutputWord(b.ExtendZero(x, 4))
	c := b.MustBuild()
	for _, v := range []int8{0, 1, -1, 127, -128, 40, -40} {
		u := uint64(uint8(v))
		g := circuit.UintToBools(u, 8)
		out, err := c.Eval(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := []uint64{
			circuit.BoolsToUint(out[:16]), circuit.BoolsToUint(out[16:32]),
			circuit.BoolsToUint(out[32:36]), circuit.BoolsToUint(out[36:40]),
		}
		want := []uint64{uint64(uint16(int16(v))), u, u & 15, u & 15}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("v=%d output %d = %#x, want %#x", v, i, got[i], want[i])
			}
		}
	}
}

func TestShifts(t *testing.T) {
	for _, k := range []int{0, 1, 5, 16, 31, 40} {
		k := k
		shl := evalBin(t, 32, func(b *B, x, y Word) Word { return b.ShlConst(x, k) })
		shr := evalBin(t, 32, func(b *B, x, y Word) Word { return b.ShrConst(x, k) })
		x := uint64(0xdeadbeef)
		wantShl := x << uint(k) & w32mask
		wantShr := x >> uint(k)
		if k >= 64 {
			wantShl, wantShr = 0, 0
		}
		if got := shl(x, 0); got != wantShl {
			t.Fatalf("ShlConst(%#x,%d) = %#x, want %#x", x, k, got, wantShl)
		}
		if got := shr(x, 0); got != wantShr {
			t.Fatalf("ShrConst(%#x,%d) = %#x, want %#x", x, k, got, wantShr)
		}
	}
}

func TestVarShifts(t *testing.T) {
	shr := evalBin(t, 32, func(b *B, x, y Word) Word { return b.ShrVar(x, y[:6]) })
	shl := evalBin(t, 32, func(b *B, x, y Word) Word { return b.ShlVar(x, y[:6]) })
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 150; i++ {
		x := uint64(rng.Uint32())
		s := uint64(rng.Intn(64))
		wantR, wantL := uint64(0), uint64(0)
		if s < 32 {
			wantR = x >> s
			wantL = x << s & w32mask
		}
		if got := shr(x, s); got != wantR {
			t.Fatalf("ShrVar(%#x,%d) = %#x, want %#x", x, s, got, wantR)
		}
		if got := shl(x, s); got != wantL {
			t.Fatalf("ShlVar(%#x,%d) = %#x, want %#x", x, s, got, wantL)
		}
	}
}

func TestPopCount(t *testing.T) {
	b := New()
	x := b.GarblerInputs(33)
	b.OutputWord(b.PopCount(x))
	c := b.MustBuild()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		bits := make([]bool, 33)
		want := uint64(0)
		for j := range bits {
			bits[j] = rng.Intn(2) == 1
			if bits[j] {
				want++
			}
		}
		out, err := c.Eval(bits, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := circuit.BoolsToUint(out); got != want {
			t.Fatalf("PopCount = %d, want %d", got, want)
		}
	}
}

func TestLeadingZeros(t *testing.T) {
	b := New()
	x := b.GarblerInputs(28)
	b.OutputWord(b.LeadingZeros(x))
	c := b.MustBuild()
	rng := rand.New(rand.NewSource(17))
	check := func(v uint64) {
		t.Helper()
		want := uint64(0)
		for i := 27; i >= 0; i-- {
			if v>>uint(i)&1 == 1 {
				break
			}
			want++
		}
		out, err := c.Eval(circuit.UintToBools(v, 28), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := circuit.BoolsToUint(out); got != want {
			t.Fatalf("LeadingZeros(%#x) = %d, want %d", v, got, want)
		}
	}
	check(0)
	check(1)
	check(1 << 27)
	for i := 0; i < 100; i++ {
		check(uint64(rng.Uint32()) & (1<<28 - 1))
	}
}

func TestConstFolding(t *testing.T) {
	b := New()
	x := b.GarblerInputs(32)
	// Masking with a constant must not emit any AND gates.
	before := b.NumGates()
	_ = b.ANDConst(x, 0x0000ffff)
	if b.NumGates() != before {
		t.Fatalf("ANDConst emitted %d gates", b.NumGates()-before)
	}
	// XOR with zero word: no gates.
	_ = b.XORWords(x, b.ZeroWord(32))
	if b.NumGates() != before {
		t.Fatal("XOR with zero emitted gates")
	}
	// Double negation folds.
	n := b.NOT(x[0])
	gatesAfterNot := b.NumGates()
	if b.NOT(n) != x[0] {
		t.Fatal("NOT(NOT(x)) != x")
	}
	if b.NumGates() != gatesAfterNot {
		t.Fatal("double negation emitted gates")
	}
	// x ^ x and x & ~x are constants.
	if k, v := b.IsConst(b.XOR(x[1], x[1])); !k || v {
		t.Fatal("x^x did not fold to const 0")
	}
	if k, v := b.IsConst(b.AND(x[2], b.NOT(x[2]))); !k || v {
		t.Fatal("x & ~x did not fold to const 0")
	}
}

func TestBuildTwiceFails(t *testing.T) {
	b := New()
	x := b.GarblerInputs(1)
	b.Output(x[0])
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("second Build succeeded")
	}
}

func TestInterleavedInputOrder(t *testing.T) {
	// Inputs declared after gates must still land in the canonical
	// garbler-then-evaluator order.
	b := New()
	g1 := b.GarblerInputs(1)
	e1 := b.EvaluatorInputs(1)
	sum := b.XOR(g1[0], e1[0])
	g2 := b.GarblerInputs(1)
	b.Output(b.XOR(sum, g2[0]))
	c := b.MustBuild()
	if c.GarblerInputs != 2 || c.EvaluatorInputs != 1 {
		t.Fatalf("input counts %d/%d", c.GarblerInputs, c.EvaluatorInputs)
	}
	// g = [g1, g2], e = [e1]: out = g1 ^ e1 ^ g2
	out, err := c.Eval([]bool{true, true}, []bool{false})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != false {
		t.Fatal("wrong value after input renumbering")
	}
}

func TestStatsOnAdder(t *testing.T) {
	b := New()
	x := b.GarblerInputs(32)
	y := b.EvaluatorInputs(32)
	b.OutputWord(b.Add(x, y))
	c := b.MustBuild()
	s := c.ComputeStats()
	and, _, _ := c.CountOps()
	if and != 31 { // one AND per bit except the final sum bit's carry is unused... carry chain emits 32, last one may fold
		// The final carry-out AND is still emitted since AddCin computes it.
		if and != 32 {
			t.Fatalf("adder AND count = %d, want 31 or 32", and)
		}
	}
	if s.Levels == 0 || s.ILP == 0 {
		t.Fatal("stats not computed")
	}
}
