package gc

import (
	"fmt"

	"haac/internal/circuit"
	"haac/internal/label"
)

// Garbled is the in-memory result of garbling a circuit: everything the
// garbler produces in the offline phase.
type Garbled struct {
	// R is the global FreeXOR offset (garbler secret).
	R label.L
	// InputZeros holds the zero-label of every input-like wire
	// (garbler inputs, evaluator inputs, constants), indexed by wire.
	InputZeros []label.L
	// Tables holds one Material per AND gate, in gate order — the
	// stream HAAC's table queue consumes.
	Tables []Material
	// OutputZeros holds the zero-label of each output wire, in circuit
	// output order; colours of these are the decode information.
	OutputZeros []label.L
}

// DecodeBits returns the point-and-permute decode bit per output.
func (g *Garbled) DecodeBits() []int {
	d := make([]int, len(g.OutputZeros))
	for i, z := range g.OutputZeros {
		d[i] = z.Colour()
	}
	return d
}

// Garble garbles the circuit gate by gate over dense per-wire arrays.
// It is the reference oracle, not a production engine: the golden
// vectors pin its bytes and the plan runners (PlanGarbler) are tested
// byte-identical to it. The source must be cryptographically random for
// real use; tests use a deterministic label.Source.
func Garble(c *circuit.Circuit, h Hasher, src *label.Source) (*Garbled, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("gc: %w", err)
	}
	r := src.NextDelta()
	nin := c.NumInputs()

	wires := make([]label.L, c.NumWires)
	inputZeros := make([]label.L, nin)
	for i := 0; i < nin; i++ {
		wires[i] = src.Next()
		inputZeros[i] = wires[i]
	}

	and, _, _ := c.CountOps()
	tables := make([]Material, 0, and)
	var gateIdx uint64
	bh := batched(h)
	for i := range c.Gates {
		g := &c.Gates[i]
		switch g.Op {
		case circuit.XOR:
			wires[g.C] = wires[g.A].Xor(wires[g.B])
		case circuit.INV:
			// FreeXOR NOT: the zero-label of the output is the
			// one-label of the input.
			wires[g.C] = wires[g.A].Xor(r)
		case circuit.AND:
			m, c0 := garbleGate(bh, wires[g.A], wires[g.B], r, gateIdx)
			tables = append(tables, m)
			wires[g.C] = c0
			gateIdx++
		default:
			return nil, fmt.Errorf("gc: gate %d has unknown op %d", i, g.Op)
		}
	}

	outs := make([]label.L, len(c.Outputs))
	for i, o := range c.Outputs {
		outs[i] = wires[o]
	}
	return &Garbled{R: r, InputZeros: inputZeros, Tables: tables, OutputZeros: outs}, nil
}

// EncodeInputs maps plaintext input bits to input labels. garbler and
// evaluator bits follow the circuit's wire order; constants get their
// fixed labels automatically.
func (g *Garbled) EncodeInputs(c *circuit.Circuit, garbler, evaluator []bool) ([]label.L, error) {
	if len(garbler) != c.GarblerInputs || len(evaluator) != c.EvaluatorInputs {
		return nil, fmt.Errorf("gc: input length mismatch (%d/%d, want %d/%d)",
			len(garbler), len(evaluator), c.GarblerInputs, c.EvaluatorInputs)
	}
	labels := make([]label.L, c.NumInputs())
	for i, v := range garbler {
		labels[i] = g.InputZeros[i]
		if v {
			labels[i] = labels[i].Xor(g.R)
		}
	}
	off := c.GarblerInputs
	for i, v := range evaluator {
		labels[off+i] = g.InputZeros[off+i]
		if v {
			labels[off+i] = labels[off+i].Xor(g.R)
		}
	}
	if c.HasConst {
		labels[c.Const0] = g.InputZeros[c.Const0]
		labels[c.Const1] = g.InputZeros[c.Const1].Xor(g.R)
	}
	return labels, nil
}

// Evaluate runs the evaluator over the whole circuit in memory, given
// the active input labels (one per input-like wire) and the tables —
// the reference oracle PlanEvaluator is tested against.
func Evaluate(c *circuit.Circuit, h Hasher, inputs []label.L, tables []Material) ([]label.L, error) {
	if len(inputs) != c.NumInputs() {
		return nil, fmt.Errorf("gc: got %d input labels, want %d", len(inputs), c.NumInputs())
	}
	wires := make([]label.L, c.NumWires)
	copy(wires, inputs)
	var gateIdx uint64
	bh := batched(h)
	for i := range c.Gates {
		g := &c.Gates[i]
		switch g.Op {
		case circuit.XOR:
			wires[g.C] = wires[g.A].Xor(wires[g.B])
		case circuit.INV:
			wires[g.C] = wires[g.A]
		case circuit.AND:
			if int(gateIdx) >= len(tables) {
				return nil, fmt.Errorf("gc: table stream exhausted at gate %d", i)
			}
			wires[g.C] = evalGate(bh, wires[g.A], wires[g.B], tables[gateIdx], gateIdx)
			gateIdx++
		default:
			return nil, fmt.Errorf("gc: gate %d has unknown op %d", i, g.Op)
		}
	}
	if int(gateIdx) != len(tables) {
		return nil, fmt.Errorf("gc: %d tables provided, %d consumed", len(tables), gateIdx)
	}
	out := make([]label.L, len(c.Outputs))
	for i, o := range c.Outputs {
		out[i] = wires[o]
	}
	return out, nil
}

// Decode recovers plaintext output bits from active output labels using
// the garbler's decode bits. It fails if a label is neither of the two
// valid labels for its wire — the "corrupted table" detection tests rely
// on this.
func (g *Garbled) Decode(outputs []label.L) ([]bool, error) {
	if len(outputs) != len(g.OutputZeros) {
		return nil, fmt.Errorf("gc: got %d output labels, want %d", len(outputs), len(g.OutputZeros))
	}
	bits := make([]bool, len(outputs))
	for i, l := range outputs {
		switch l {
		case g.OutputZeros[i]:
			bits[i] = false
		case g.OutputZeros[i].Xor(g.R):
			bits[i] = true
		default:
			return nil, fmt.Errorf("gc: output %d label is invalid (corrupted evaluation)", i)
		}
	}
	return bits, nil
}

// Run garbles, encodes, evaluates and decodes in one step on the
// reference path — the convenience entry point for tests and examples
// that don't need the two-party split.
func Run(c *circuit.Circuit, h Hasher, seed uint64, garbler, evaluator []bool) ([]bool, error) {
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
