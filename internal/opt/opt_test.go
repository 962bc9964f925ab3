package opt

import (
	"math/rand"
	"testing"

	"haac/internal/builder"
	"haac/internal/circuit"
	"haac/internal/workloads"
)

// randomCircuit with deliberate redundancy: duplicate gates, dead tails,
// and constant wires.
func redundantCircuit(rng *rand.Rand, gates int) *circuit.Circuit {
	ng, ne := 5, 5
	c := &circuit.Circuit{
		GarblerInputs:   ng,
		EvaluatorInputs: ne,
		HasConst:        true,
		Const0:          circuit.Wire(ng + ne),
		Const1:          circuit.Wire(ng + ne + 1),
	}
	next := circuit.Wire(ng + ne + 2)
	for i := 0; i < gates; i++ {
		a := circuit.Wire(rng.Intn(int(next)))
		b := circuit.Wire(rng.Intn(int(next)))
		op := []circuit.Op{circuit.XOR, circuit.AND, circuit.INV}[rng.Intn(3)]
		c.Gates = append(c.Gates, circuit.Gate{Op: op, A: a, B: b})
		next++
		// Occasionally duplicate the gate we just emitted (CSE food).
		if rng.Intn(4) == 0 {
			g := c.Gates[len(c.Gates)-1]
			c.Gates = append(c.Gates, circuit.Gate{Op: g.Op, A: g.A, B: g.B})
			next++
		}
	}
	// Outputs from the middle: everything after is dead.
	mid := circuit.Wire(ng + ne + 2 + gates/2)
	c.Outputs = []circuit.Wire{mid, mid + 1, mid + 2}
	return c
}

func randBits(rng *rand.Rand, n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = rng.Intn(2) == 1
	}
	return b
}

func TestOptimizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		c := redundantCircuit(rng, 100+rng.Intn(200))
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		oc, res, err := Optimize(c)
		if err != nil {
			t.Fatal(err)
		}
		if res.After > res.Before {
			t.Fatalf("optimization grew the circuit: %v", res)
		}
		for i := 0; i < 5; i++ {
			g := randBits(rng, c.GarblerInputs)
			e := randBits(rng, c.EvaluatorInputs)
			want, err := c.Eval(g, e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := oc.Eval(g, e)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("trial %d: output %d changed (%v)", trial, j, res)
				}
			}
		}
	}
}

func TestOptimizeRemovesDeadCode(t *testing.T) {
	b := builder.New()
	x := b.GarblerInputs(8)
	y := b.EvaluatorInputs(8)
	_ = b.Mul(x, y) // entirely dead
	b.Output(b.XOR(x[0], y[0]))
	c := b.MustBuild()
	oc, res, err := Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(oc.Gates) != 1 {
		t.Fatalf("dead multiplier not removed: %d gates remain (%v)", len(oc.Gates), res)
	}
	if res.DeadEliminated == 0 {
		t.Fatal("no dead gates reported")
	}
}

func TestOptimizeCSE(t *testing.T) {
	// Hand-build duplicated gates (the builder would fold these itself).
	c := &circuit.Circuit{
		GarblerInputs: 2, EvaluatorInputs: 0,
		Gates: []circuit.Gate{
			{Op: circuit.AND, A: 0, B: 1},
			{Op: circuit.AND, A: 1, B: 0}, // commuted duplicate
			{Op: circuit.XOR, A: 2, B: 3}, // x ^ x via CSE
			{Op: circuit.AND, A: 0, B: 1}, // straight duplicate
			{Op: circuit.XOR, A: 4, B: 5},
			{Op: circuit.INV, A: 6},
		},
		Outputs: []circuit.Wire{7},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	oc, res, err := Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSEDeduped < 2 {
		t.Fatalf("expected >=2 CSE hits, got %v", res)
	}
	and, _, _ := oc.CountOps()
	if and != 1 {
		t.Fatalf("duplicated ANDs survived: %d", and)
	}
	// Semantics: out = NOT((a&b ^ a&b) ^ a&b) = NOT(a&b)
	for v := 0; v < 4; v++ {
		g := []bool{v&1 == 1, v&2 == 2}
		got, err := oc.Eval(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := !(g[0] && g[1])
		if got[0] != want {
			t.Fatalf("CSE changed semantics at %d", v)
		}
	}
}

func TestOptimizeConstantFolding(t *testing.T) {
	c := &circuit.Circuit{
		GarblerInputs: 1, EvaluatorInputs: 0,
		HasConst: true, Const0: 1, Const1: 2,
		Gates: []circuit.Gate{
			{Op: circuit.AND, A: 0, B: 1}, // x & 0 = 0
			{Op: circuit.XOR, A: 3, B: 0}, // 0 ^ x = x
			{Op: circuit.AND, A: 4, B: 2}, // x & 1 = x
			{Op: circuit.XOR, A: 1, B: 2}, // 0 ^ 1 = 1
			{Op: circuit.AND, A: 5, B: 6}, // x & 1 = x
			{Op: circuit.INV, A: 7},       // NOT x
		},
		Outputs: []circuit.Wire{8},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	oc, res, err := Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	and, _, inv := oc.CountOps()
	if and != 0 {
		t.Fatalf("constant ANDs survived: %d (%v)", and, res)
	}
	if inv != 1 {
		t.Fatalf("expected a single INV, got %d", inv)
	}
	for _, x := range []bool{false, true} {
		got, err := oc.Eval([]bool{x}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != !x {
			t.Fatal("constant folding changed semantics")
		}
	}
}

func TestOptimizeWorkloadsUnchangedBehaviour(t *testing.T) {
	for _, w := range workloads.VIPSuiteSmall() {
		if w.Name == "BubbSt" || w.Name == "GradDesc" || w.Name == "Triangle" {
			continue // slow; covered by the others
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			c := w.Build()
			oc, res, err := Optimize(c)
			if err != nil {
				t.Fatal(err)
			}
			g, e := w.Inputs(11)
			want := w.Reference(g, e)
			got, err := oc.Eval(g, e)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("optimization broke %s (%v)", w.Name, res)
				}
			}
			// Builder output is already folded, so gains should be small
			// but never negative.
			if res.After > res.Before {
				t.Fatalf("grew: %v", res)
			}
		})
	}
}

func TestOptimizeInvalidRejected(t *testing.T) {
	c := &circuit.Circuit{GarblerInputs: 1,
		Gates:   []circuit.Gate{{Op: circuit.AND, A: 5, B: 0}},
		Outputs: []circuit.Wire{1}}
	if _, _, err := Optimize(c); err == nil {
		t.Fatal("invalid circuit accepted")
	}
}

// TestOptimizeIgnoresINVOperandB: an INV gate's B field is never read,
// so Validate accepts any value there, and Optimize must not index by it.
func TestOptimizeIgnoresINVOperandB(t *testing.T) {
	c := &circuit.Circuit{GarblerInputs: 1,
		Gates:   []circuit.Gate{{Op: circuit.INV, A: 0, B: 1 << 31}},
		Outputs: []circuit.Wire{1}}
	o, _, err := Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []bool{false, true} {
		if out, _ := o.Eval([]bool{x}, nil); out[0] != !x {
			t.Fatalf("NOT %v = %v", x, out[0])
		}
	}
}
