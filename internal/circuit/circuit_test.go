package circuit

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// xorAndCircuit builds the little example from the paper's Fig. 4/5:
// wires 0..3 are inputs; gates produce 4..7.
func xorAndCircuit() *Circuit {
	return &Circuit{
		GarblerInputs:   2,
		EvaluatorInputs: 2,
		Gates: []Gate{
			{Op: XOR, A: 1, B: 2},
			{Op: AND, A: 1, B: 2},
			{Op: XOR, A: 0, B: 3},
			{Op: AND, A: 3, B: 4},
		},
		Outputs: []Wire{6, 7},
	}
}

func TestValidateOK(t *testing.T) {
	if err := xorAndCircuit().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := map[string]func(*Circuit){
		"out of range input":  func(c *Circuit) { c.Gates[0].A = 99 },
		"use before def":      func(c *Circuit) { c.Gates[0].A = 7 },
		"forward reference":   func(c *Circuit) { c.Gates[1].B = Wire(c.NumInputs() + 1) },
		"output out of range": func(c *Circuit) { c.Outputs[0] = 99 },
		"output past gates":   func(c *Circuit) { c.Outputs[0] = Wire(c.NumWires()) },
		"unknown op":          func(c *Circuit) { c.Gates[0].Op = INV + 1 },
		"misplaced constants": func(c *Circuit) { c.HasConst, c.Const0, c.Const1 = true, 0, 1 },
		"no wires":            func(c *Circuit) { *c = Circuit{} },
	}
	for name, mutate := range cases {
		c := xorAndCircuit()
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid circuit", name)
		}
	}
}

// TestGateIsPosition: a gate stores no output wire, and Validate, which
// every plan build, compile and Build runs, allocates nothing.
func TestGateIsPosition(t *testing.T) {
	if n := unsafe.Sizeof(Gate{}); n != 12 {
		t.Fatalf("Gate is %d bytes, want 12", n)
	}
	c := RandomCircuit(rand.New(rand.NewSource(7)))
	if c.NumWires() != c.NumInputs()+len(c.Gates) {
		t.Fatalf("NumWires %d, want %d inputs + %d gates", c.NumWires(), c.NumInputs(), len(c.Gates))
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = c.Validate() }); allocs != 0 {
		t.Fatalf("Validate allocates %v times", allocs)
	}
}

func TestEvalTruthTables(t *testing.T) {
	// Single gates, exhaustive over the 4 input combinations.
	mk := func(op Op) *Circuit {
		return &Circuit{
			GarblerInputs: 1, EvaluatorInputs: 1,
			Gates:   []Gate{{Op: op, A: 0, B: 1}},
			Outputs: []Wire{2},
		}
	}
	for _, a := range []bool{false, true} {
		for _, b := range []bool{false, true} {
			outXor, err := mk(XOR).Eval([]bool{a}, []bool{b})
			if err != nil {
				t.Fatal(err)
			}
			if outXor[0] != (a != b) {
				t.Fatalf("XOR(%v,%v) = %v", a, b, outXor[0])
			}
			outAnd, _ := mk(AND).Eval([]bool{a}, []bool{b})
			if outAnd[0] != (a && b) {
				t.Fatalf("AND(%v,%v) = %v", a, b, outAnd[0])
			}
		}
		inv := &Circuit{GarblerInputs: 1,
			Gates: []Gate{{Op: INV, A: 0}}, Outputs: []Wire{1}}
		out, _ := inv.Eval([]bool{a}, nil)
		if out[0] != !a {
			t.Fatalf("INV(%v) = %v", a, out[0])
		}
	}
}

func TestEvalConstWires(t *testing.T) {
	c := &Circuit{
		GarblerInputs: 1, EvaluatorInputs: 0,
		HasConst: true, Const0: 1, Const1: 2,
		Gates: []Gate{
			{Op: XOR, A: 0, B: 2}, // NOT x via const1
			{Op: AND, A: 0, B: 1}, // x & 0 == 0
		},
		Outputs: []Wire{3, 4},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	out, err := c.Eval([]bool{true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != false || out[1] != false {
		t.Fatalf("const wires wrong: %v", out)
	}
}

func TestEvalInputLengthChecked(t *testing.T) {
	c := xorAndCircuit()
	if _, err := c.Eval([]bool{true}, []bool{true, true}); err == nil {
		t.Fatal("short garbler input accepted")
	}
	if _, err := c.Eval([]bool{true, true}, nil); err == nil {
		t.Fatal("short evaluator input accepted")
	}
}

func TestStats(t *testing.T) {
	c := xorAndCircuit()
	s := c.ComputeStats()
	if s.Gates != 4 || s.ANDGates != 2 {
		t.Fatalf("gates=%d and=%d", s.Gates, s.ANDGates)
	}
	if s.Levels != 2 {
		t.Fatalf("levels=%d, want 2", s.Levels)
	}
	if s.ILP != 2 {
		t.Fatalf("ILP=%v, want 2", s.ILP)
	}
	if s.ANDPercent != 50 {
		t.Fatalf("AND%%=%v", s.ANDPercent)
	}
	// Three gates read only inputs; the last AND reads one of them.
	if s.MaxLevelILP != 3 {
		t.Fatalf("MaxLevelILP=%d, want 3", s.MaxLevelILP)
	}
}

func TestLevelsMonotone(t *testing.T) {
	c := xorAndCircuit()
	levels, _ := Levels(c, nil, nil)
	// A consumer's level must exceed its producers'.
	prodLevel := map[Wire]int32{}
	for i, g := range c.Gates {
		if la, ok := prodLevel[g.A]; ok && levels[i] <= la {
			t.Fatal("level not monotone")
		}
		prodLevel[Wire(c.NumInputs()+i)] = levels[i]
	}
}

// xorAndBristol is a netlist in Bristol layout: three inputs, four
// gates, the outputs the last two wires.
const xorAndBristol = `4 7
2 1 2

2 1 0 1 3 XOR
1 1 2 4 INV
2 1 3 4 5 AND
2 1 5 0 6 XOR
`

func TestBristolRoundTrip(t *testing.T) {
	want := &Circuit{
		GarblerInputs: 2, EvaluatorInputs: 1,
		Gates: []Gate{
			{Op: XOR, A: 0, B: 1},
			{Op: INV, A: 2},
			{Op: AND, A: 3, B: 4},
			{Op: XOR, A: 5, B: 0},
		},
		Outputs: []Wire{5, 6},
	}
	got, err := ReadBristol(strings.NewReader(xorAndBristol))
	if err != nil {
		t.Fatal(err)
	}
	if Digest(got) != Digest(want) {
		t.Fatalf("parsed circuit differs: %+v", got)
	}
	// Functional equivalence on all 8 input combinations.
	for v := 0; v < 8; v++ {
		g := []bool{v&1 == 1, v&2 == 2}
		e := []bool{v&4 == 4}
		a, _ := want.Eval(g, e)
		bb, _ := got.Eval(g, e)
		for i := range a {
			if a[i] != bb[i] {
				t.Fatalf("parsed circuit differs in semantics at input %d", v)
			}
		}
	}
}

func TestBristolRejectsMalformed(t *testing.T) {
	bad := []string{
		"",                                           // empty
		"1\n1 1 1\n",                                 // short header
		"1 3\n1 0 1\n2 1 0 1 2 NOR\n",                // unknown gate
		"2 3\n1 0 1\n2 1 0 1 2 AND\n",                // missing gate
		"1 3\n1 0 1\n2 1 0 9 2 AND\n",                // wire out of range
		"1 3\n1 0 1\n2 1 0 4294967296 2 AND\n",       // wire beyond 32 bits
		"-1 3\n1 0 1\n",                              // negative gate count
		"1 3\n1 0 -1\n",                              // negative output count
		"1 3\n1 0 4\n2 1 0 0 2 AND\n",                // more outputs than wires
		"1 3\n2 2 1\n2 1 0 1 2 AND\n",                // more inputs than wires
		"1000000000000 3\n1 0 1\n",                   // gate count beyond the file
		"0 1000000000000\n1 0 1\n",                   // wire count beyond the limit
		"0 0\n0 0 0\n",                               // no wires
		"1 3\n2 0 1\n9 9 0 1 2 AND\n",                // AND arity fields not 2 1
		"1 3\n2 0 1\n1 2 0 1 2 XOR\n",                // XOR arity fields not 2 1
		"1 2\n1 0 1\n2 1 0 1 NOT\n",                  // NOT arity fields not 1 1
		"1 2\n1 0 1\n1 2 0 1 INV\n",                  // INV arity fields not 1 1
		"2 3\n2 0 1\n2 1 0 1 2 AND\n2 1 0 1 2 XOR\n", // double write
		"2 3\n2 0 1\n2 1 0 1 2 AND\n2 1 0 2 1 XOR\n", // write to an input wire
		"1 4\n2 0 1\n2 1 0 2 3 AND\n",                // read before write
		"1 2A\n1 0 0\n1 1 0 1 NOT\n",                 // header field not a number
		"1 2\n1 0 1 0\n1 1 0 1 NOT\n",                // io header with a fourth field
	}
	for i, s := range bad {
		if _, err := ReadBristol(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: malformed netlist accepted", i)
		}
	}
}

// TestBristolOutputsMustBeLast: the format has no output list; the
// outputs are the last n_outputs wires.
func TestBristolOutputsMustBeLast(t *testing.T) {
	c, err := ReadBristol(strings.NewReader(xorAndBristol))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Outputs) != 2 || c.Outputs[0] != 5 || c.Outputs[1] != 6 {
		t.Fatalf("outputs %v, want the last two wires [5 6]", c.Outputs)
	}
	// A netlist whose last wire is never written is rejected.
	if _, err := ReadBristol(strings.NewReader("1 5\n2 1 1\n2 1 0 1 3 AND\n")); err == nil {
		t.Fatal("undefined output wire accepted")
	}
}

// TestBristolRenumbers: a netlist may write its wires in any order and
// leave some unwritten; ReadBristol renumbers it so gate i writes wire
// NumInputs()+i, and the result computes the same function.
func TestBristolRenumbers(t *testing.T) {
	// Inputs 0..2; wire 5 is a gap; the gates write 6, 4, 3, 8, 7.
	const netlist = `5 9
2 1 2
2 1 0 1 6 AND
1 1 2 4 INV
2 1 6 4 3 XOR
2 1 3 0 8 XOR
2 1 4 3 7 AND
`
	want := &Circuit{
		GarblerInputs: 2, EvaluatorInputs: 1,
		Gates: []Gate{
			{Op: AND, A: 0, B: 1}, // file wire 6
			{Op: INV, A: 2},       // file wire 4
			{Op: XOR, A: 3, B: 4}, // file wire 3
			{Op: XOR, A: 5, B: 0}, // file wire 8
			{Op: AND, A: 4, B: 5}, // file wire 7
		},
		Outputs: []Wire{7, 6}, // file wires 7, 8
	}
	got, err := ReadBristol(strings.NewReader(netlist))
	if err != nil {
		t.Fatal(err)
	}
	if Digest(got) != Digest(want) {
		t.Fatalf("renumbered circuit %+v, want %+v", got, want)
	}
	for v := 0; v < 8; v++ {
		g, e := []bool{v&1 == 1, v&2 == 2}, []bool{v&4 == 4}
		a, _ := want.Eval(g, e)
		b, _ := got.Eval(g, e)
		// The netlist by hand: w6 = x0&x1, w4 = !x2, w3 = w6^w4,
		// w8 = w3^x0, w7 = w4&w3; the outputs are w7, w8.
		w3 := (g[0] && g[1]) != !e[0]
		direct := []bool{!e[0] && w3, w3 != g[0]}
		if !slices.Equal(a, direct) || !slices.Equal(b, direct) {
			t.Fatalf("input %d: read %v, hand-renumbered %v, netlist %v", v, b, a, direct)
		}
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{XOR: "XOR", AND: "AND", INV: "INV", Op(9): "Op(9)"} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", uint8(op), got, want)
		}
	}
}

func TestPackHelpers(t *testing.T) {
	f := func(v uint32) bool {
		return BoolsToUint(UintToBools(uint64(v), 32)) == uint64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := xorAndCircuit()
	d := c.Clone()
	d.Gates[0].Op = AND
	d.Outputs[0] = 0
	if c.Gates[0].Op != XOR || c.Outputs[0] != 6 {
		t.Fatal("Clone shares memory with original")
	}
}

func TestEvalUintWidths(t *testing.T) {
	// 4-bit adder via explicit gates is overkill; use a tiny identity.
	c := &Circuit{
		GarblerInputs: 4,
		Gates: []Gate{
			{Op: XOR, A: 0, B: 1},
			{Op: XOR, A: 1, B: 2},
			{Op: XOR, A: 2, B: 3},
			{Op: XOR, A: 3, B: 0},
		},
		Outputs: []Wire{4, 5, 6, 7},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		v := uint64(rng.Intn(16))
		out, err := c.EvalUint([]uint64{v}, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := (v>>0&1 ^ v>>1&1) | (v>>1&1^v>>2&1)<<1 | (v>>2&1^v>>3&1)<<2 | (v>>3&1^v>>0&1)<<3
		if out[0] != want {
			t.Fatalf("EvalUint = %d, want %d", out[0], want)
		}
	}
}
