package circuit

import "math/rand"

// RandomCircuit generates a small random well-formed circuit: mixed
// AND/XOR/INV gates, optional constant wires, shared fan-out (several
// gates may read one wire) and a random output subset. It exists for
// property tests — dense vs planned execution, compiler passes, fuzzing
// — where hand-built shapes would miss corner cases. The result always
// passes Validate.
func RandomCircuit(rng *rand.Rand) *Circuit {
	c := &Circuit{
		GarblerInputs:   1 + rng.Intn(6),
		EvaluatorInputs: rng.Intn(6),
		HasConst:        rng.Intn(2) == 1,
	}
	nin := c.GarblerInputs + c.EvaluatorInputs
	if c.HasConst {
		c.Const0 = Wire(nin)
		c.Const1 = Wire(nin + 1)
		nin += 2
	}
	nGates := 5 + rng.Intn(120)
	c.Gates = make([]Gate, nGates)
	for i := range c.Gates {
		g := Gate{A: Wire(rng.Intn(nin + i)), B: Wire(rng.Intn(nin + i))}
		switch rng.Intn(4) {
		case 0:
			g.Op = AND
		case 1, 2:
			g.Op = XOR
		case 3:
			g.Op = INV
		}
		c.Gates[i] = g
	}
	nOut := 1 + rng.Intn(8)
	c.Outputs = make([]Wire, nOut)
	for i := range c.Outputs {
		c.Outputs[i] = Wire(rng.Intn(nin + nGates))
	}
	return c
}
