package circuit

import (
	"math/rand"
	"testing"
)

// planTestCircuit builds a small mixed circuit exercising constants,
// shared fan-out and all three ops.
func planTestCircuit(t *testing.T) *Circuit {
	t.Helper()
	// Wires: 2 garbler + 2 evaluator inputs, const0/const1 at 4,5.
	c := &Circuit{
		GarblerInputs:   2,
		EvaluatorInputs: 2,
		HasConst:        true,
		Const0:          4,
		Const1:          5,
		Gates: []Gate{
			{Op: AND, A: 0, B: 2},
			{Op: XOR, A: 1, B: 3},
			{Op: INV, A: 6},
			{Op: AND, A: 6, B: 7}, // wire 6 shared fan-out
			{Op: XOR, A: 8, B: 5},
			{Op: AND, A: 9, B: 10},
		},
		Outputs: []Wire{11, 7},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkPlan verifies the structural invariants renaming must preserve.
func checkPlan(t *testing.T, c *Circuit, p *Plan) {
	t.Helper()
	if p.Circuit != c {
		t.Fatal("plan does not reference its circuit")
	}
	if len(p.Gates) != len(c.Gates) {
		t.Fatalf("renamed gate count %d != %d", len(p.Gates), len(c.Gates))
	}
	if p.NumSlots != p.PeakLive {
		t.Fatalf("NumSlots %d != PeakLive %d (renamer should be exact)", p.NumSlots, p.PeakLive)
	}
	if p.NumSlots > c.NumWires() {
		t.Fatalf("NumSlots %d exceeds NumWires %d", p.NumSlots, c.NumWires())
	}
	if p.NumSlots < c.NumInputs() {
		t.Fatalf("NumSlots %d below input count %d", p.NumSlots, c.NumInputs())
	}
	if len(p.OutputSlots) != len(c.Outputs) {
		t.Fatalf("OutputSlots length %d != %d outputs", len(p.OutputSlots), len(c.Outputs))
	}
	and, xor, inv := c.CountOps()
	if len(p.Tables) != and {
		t.Fatalf("%d table indices for %d AND gates", len(p.Tables), and)
	}
	// Steps tile Gates and Tables in order. Per-step write/read
	// disjointness: the step-boundary rule means no gate's output slot is
	// read or written by any other gate of the same step — the
	// no-intra-step-race guarantee the parallel engines need.
	gates, tables := 0, 0
	for k := 0; k < p.NumSteps(); k++ {
		free, ands, index := p.Step(k)
		if len(index) != len(ands) {
			t.Fatalf("step %d: %d table indices for %d AND gates", k, len(index), len(ands))
		}
		if len(free) > 0 && &free[0] != &p.Gates[gates] || len(ands) > 0 && &ands[0] != &p.Gates[gates+len(free)] ||
			len(index) > 0 && &index[0] != &p.Tables[tables] {
			t.Fatalf("step %d does not start where step %d ended", k, k-1)
		}
		gates += len(free) + len(ands)
		tables += len(index)
		writes, reads := map[Wire]bool{}, map[Wire]bool{}
		for r, run := range [][]PlanGate{free, ands} {
			for i := range run {
				g := &run[i]
				if int(g.A) >= p.NumSlots || int(g.B) >= p.NumSlots || int(g.C) >= p.NumSlots {
					t.Fatalf("step %d references a slot out of range [0,%d)", k, p.NumSlots)
				}
				if (g.Op == AND) != (r == 1) {
					t.Fatalf("step %d has a %v gate in the wrong run", k, g.Op)
				}
				switch g.Op {
				case AND:
					and--
				case XOR:
					xor--
				case INV:
					inv--
				}
				if writes[g.C] {
					t.Fatalf("slot %d written twice in step %d", g.C, k)
				}
				writes[g.C] = true
				reads[g.A] = true
				reads[g.B] = true
			}
		}
		for s := range writes {
			if reads[s] {
				t.Fatalf("slot %d both written and read in step %d", s, k)
			}
		}
	}
	if gates != len(p.Gates) || tables != len(p.Tables) {
		t.Fatalf("steps cover %d of %d gates and %d of %d tables", gates, len(p.Gates), tables, len(p.Tables))
	}
	if and != 0 || xor != 0 || inv != 0 {
		t.Fatal("renaming changed the gate ops")
	}
}

// evalPlanPlain executes the renamed gate list, front to back, over a
// plaintext slot arena — proving the plan is a faithful reordering and
// renaming of the circuit.
func evalPlanPlain(c *Circuit, p *Plan, garbler, evaluator []bool) []bool {
	slots := make([]bool, p.NumSlots)
	copy(slots, garbler)
	copy(slots[c.GarblerInputs:], evaluator)
	if c.HasConst {
		slots[c.Const0] = false
		slots[c.Const1] = true
	}
	for i := range p.Gates {
		g := &p.Gates[i]
		switch g.Op {
		case XOR:
			slots[g.C] = slots[g.A] != slots[g.B]
		case AND:
			slots[g.C] = slots[g.A] && slots[g.B]
		case INV:
			slots[g.C] = !slots[g.A]
		}
	}
	out := make([]bool, len(p.OutputSlots))
	for i, s := range p.OutputSlots {
		out[i] = slots[s]
	}
	return out
}

func TestPlanInvariantsSmall(t *testing.T) {
	c := planTestCircuit(t)
	for _, segANDs := range testSegmentSizes {
		p := mustPlanSegmented(t, c, segANDs)
		checkPlan(t, c, p)

		// All 16 input combinations match the dense functional model.
		for v := 0; v < 16; v++ {
			g := []bool{v&1 == 1, v&2 == 2}
			e := []bool{v&4 == 4, v&8 == 8}
			want, err := c.Eval(g, e)
			if err != nil {
				t.Fatal(err)
			}
			got := evalPlanPlain(c, p, g, e)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("segment %d, v=%d: output %d = %v, want %v", segANDs, v, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPlanRandomCircuits: randomized mixed circuits (shared fan-out,
// constants, random output subsets) keep every plan invariant and the
// plaintext semantics, at every segment size.
func TestPlanRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	for trial := 0; trial < 200; trial++ {
		c := RandomCircuit(rng)
		p := mustPlanSegmented(t, c, testSegmentSizes[trial%len(testSegmentSizes)])
		checkPlan(t, c, p)
		g := randomBits(rng, c.GarblerInputs)
		e := randomBits(rng, c.EvaluatorInputs)
		want, err := c.Eval(g, e)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := evalPlanPlain(c, p, g, e)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: output %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func randomBits(rng *rand.Rand, n int) []bool {
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = rng.Intn(2) == 1
	}
	return bits
}

func TestPlanCompaction(t *testing.T) {
	// A long chain of single-use wires must compact to O(1) extra slots:
	// each step frees the previous value one step later, so the chain
	// needs inputs + 2 slots, not one slot per wire.
	const n = 1000
	c := &Circuit{
		GarblerInputs:   1,
		EvaluatorInputs: 1,
	}
	for i := 0; i < n; i++ {
		c.Gates = append(c.Gates, Gate{Op: XOR, A: Wire(i), B: Wire(i + 1)})
	}
	c.Outputs = []Wire{Wire(n + 1)}
	p, err := NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, c, p)
	if p.NumSlots > 6 {
		t.Fatalf("chain of %d wires renamed to %d slots; want O(1)", n, p.NumSlots)
	}
}

// TestPlanGapWires: input 0 is read again at level 2, so the renamer
// must not recycle its slot after level 1. Regression test for the
// renamer recycling input slot 0 through the zero-valued slot entry of
// a wire nothing wrote, which circuits could once contain.
func TestPlanGapWires(t *testing.T) {
	c := &Circuit{
		GarblerInputs:   1,
		EvaluatorInputs: 1,
		Gates: []Gate{
			{Op: AND, A: 0, B: 1},
			{Op: AND, A: 0, B: 2}, // input 0 still live at level 2
		},
		Outputs: []Wire{3},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, c, p)
	for va := 0; va < 2; va++ {
		for vb := 0; vb < 2; vb++ {
			g, e := []bool{va == 1}, []bool{vb == 1}
			want, err := c.Eval(g, e)
			if err != nil {
				t.Fatal(err)
			}
			got := evalPlanPlain(c, p, g, e)
			if got[0] != want[0] {
				t.Fatalf("a=%d b=%d: output %v, want %v (input slot recycled while live)",
					va, vb, got[0], want[0])
			}
		}
	}
}

func TestPlanRejectsBadCircuits(t *testing.T) {
	if _, err := NewPlan(&Circuit{}); err == nil {
		t.Fatal("invalid circuit accepted")
	}
	c := &Circuit{
		GarblerInputs: 2,
		Gates:         []Gate{{Op: Op(9), A: 0, B: 1}},
		Outputs:       []Wire{2},
	}
	if _, err := NewPlan(c); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestPlanBuildCounter(t *testing.T) {
	c := planTestCircuit(t)
	before := PlanBuilds()
	if _, err := NewPlan(c); err != nil {
		t.Fatal(err)
	}
	if got := PlanBuilds() - before; got != 1 {
		t.Fatalf("PlanBuilds advanced by %d, want 1", got)
	}
}
