package circuit

import "fmt"

// Eval executes the circuit on plaintext bits and returns the output
// bits. garbler and evaluator are the two parties' input bits in wire
// order. Eval is the golden functional model: garbled execution, the
// HAAC functional executor, and every compiler pass are tested against
// it.
func (c *Circuit) Eval(garbler, evaluator []bool) ([]bool, error) {
	if len(garbler) != c.GarblerInputs {
		return nil, fmt.Errorf("circuit: got %d garbler input bits, want %d", len(garbler), c.GarblerInputs)
	}
	if len(evaluator) != c.EvaluatorInputs {
		return nil, fmt.Errorf("circuit: got %d evaluator input bits, want %d", len(evaluator), c.EvaluatorInputs)
	}
	nin := c.NumInputs()
	vals := make([]bool, c.NumWires())
	copy(vals, garbler)
	copy(vals[c.GarblerInputs:], evaluator)
	if c.HasConst {
		vals[c.Const0] = false
		vals[c.Const1] = true
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		switch g.Op {
		case XOR:
			vals[nin+i] = vals[g.A] != vals[g.B]
		case AND:
			vals[nin+i] = vals[g.A] && vals[g.B]
		case INV:
			vals[nin+i] = !vals[g.A]
		default:
			return nil, fmt.Errorf("circuit: gate %d has unknown op %d", i, g.Op)
		}
	}
	out := make([]bool, len(c.Outputs))
	for i, w := range c.Outputs {
		out[i] = vals[w]
	}
	return out, nil
}

// EvalUint is a convenience for word-oriented tests: it packs the
// little-endian input words into bits, evaluates, and repacks the outputs
// as a little-endian unsigned integer per output word of the given width.
func (c *Circuit) EvalUint(garbler, evaluator []uint64, width int) ([]uint64, error) {
	g := packBits(garbler, width)
	e := packBits(evaluator, width)
	bits, err := c.Eval(g, e)
	if err != nil {
		return nil, err
	}
	if len(bits)%width != 0 {
		return nil, fmt.Errorf("circuit: %d output bits not a multiple of width %d", len(bits), width)
	}
	out := make([]uint64, len(bits)/width)
	for i := range out {
		var v uint64
		for b := 0; b < width; b++ {
			if bits[i*width+b] {
				v |= 1 << uint(b)
			}
		}
		out[i] = v
	}
	return out, nil
}

func packBits(words []uint64, width int) []bool {
	bits := make([]bool, 0, len(words)*width)
	for _, w := range words {
		for b := 0; b < width; b++ {
			bits = append(bits, w>>uint(b)&1 == 1)
		}
	}
	return bits
}

// BoolsToUint packs little-endian bits into a uint64.
func BoolsToUint(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

// UintToBools unpacks v into width little-endian bits.
func UintToBools(v uint64, width int) []bool {
	bits := make([]bool, width)
	for i := range bits {
		bits[i] = v>>uint(i)&1 == 1
	}
	return bits
}
