// Package circuit defines the Boolean-circuit intermediate representation
// shared by the whole repository: the builder emits it, the garbling
// scheme (internal/gc) garbles it, the HAAC compiler assembles it into
// accelerator programs, and the plaintext evaluator provides the golden
// functional model every other component is tested against.
//
// A garbled-circuits program has no control flow: it is a straight-line
// list of gates over single-bit wires (the paper's §2.1). Gates are AND,
// XOR, and INV; INV is free under FreeXOR and is lowered by the HAAC
// assembler to an XOR with the constant-one wire, matching the two-opcode
// ISA of the accelerator.
package circuit

import (
	"errors"
	"fmt"
)

// Op is a gate operation.
type Op uint8

const (
	// XOR is a free gate under FreeXOR: no table, label XOR only.
	XOR Op = iota
	// AND is a half-gate: the expensive cryptographic operation.
	AND
	// INV is logical NOT; free, lowered to XOR-with-constant-one.
	INV
)

// String returns the Bristol-format mnemonic for the op.
func (o Op) String() string {
	switch o {
	case XOR:
		return "XOR"
	case AND:
		return "AND"
	case INV:
		return "INV"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Wire identifies a single-bit wire. Wires are dense indices in
// [0, NumWires); every wire is written exactly once (by a primary input,
// a constant, or one gate output).
type Wire = uint32

// Gate is one Boolean gate. For INV gates B is ignored.
type Gate struct {
	Op   Op
	A, B Wire // inputs
	C    Wire // output
}

// Circuit is a straight-line Boolean circuit.
//
// Wire numbering convention (enforced by Validate): wires
// [0, NumInputs()) are the primary inputs — garbler inputs first, then
// evaluator inputs, then up to two constant wires — and each gate g
// writes wire C >= NumInputs() exactly once. Gate outputs need not be
// in topological order of the slice, but the slice order must be a valid
// execution order (every gate's inputs are produced earlier).
type Circuit struct {
	// NumWires is the total number of wires.
	NumWires int

	// GarblerInputs and EvaluatorInputs count the two parties' input
	// bits. Garbler inputs occupy wires [0, GarblerInputs), evaluator
	// inputs [GarblerInputs, GarblerInputs+EvaluatorInputs).
	GarblerInputs   int
	EvaluatorInputs int

	// HasConst indicates the circuit uses public constant wires.
	// When set, Const0 and Const1 are input-like wires carrying public
	// false/true, numbered immediately after the evaluator inputs.
	HasConst       bool
	Const0, Const1 Wire

	// Outputs lists the primary-output wires in order.
	Outputs []Wire

	// Gates is the gate list in a valid execution order.
	Gates []Gate
}

// NumInputs returns the number of input-like wires (party inputs plus
// constant wires); these are the wires not produced by any gate.
func (c *Circuit) NumInputs() int {
	n := c.GarblerInputs + c.EvaluatorInputs
	if c.HasConst {
		n += 2
	}
	return n
}

// CountOps returns the number of AND, XOR and INV gates.
func (c *Circuit) CountOps() (and, xor, inv int) {
	for i := range c.Gates {
		switch c.Gates[i].Op {
		case AND:
			and++
		case XOR:
			xor++
		case INV:
			inv++
		}
	}
	return
}

// Validate checks structural well-formedness: known ops, wire indices
// in range, single assignment, execution order, outputs defined. It is
// O(wires).
func (c *Circuit) Validate() error {
	if c.NumWires <= 0 {
		return errors.New("circuit: NumWires must be positive")
	}
	nin := c.NumInputs()
	if nin > c.NumWires {
		return fmt.Errorf("circuit: %d input wires exceed %d total wires", nin, c.NumWires)
	}
	if c.HasConst {
		base := Wire(c.GarblerInputs + c.EvaluatorInputs)
		if c.Const0 != base || c.Const1 != base+1 {
			return fmt.Errorf("circuit: constant wires must be %d,%d; got %d,%d",
				base, base+1, c.Const0, c.Const1)
		}
	}
	written := make([]bool, c.NumWires)
	for w := 0; w < nin; w++ {
		written[w] = true
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Op != XOR && g.Op != AND && g.Op != INV {
			return fmt.Errorf("circuit: gate %d has unknown op %d", i, g.Op)
		}
		if int(g.A) >= c.NumWires || (g.Op != INV && int(g.B) >= c.NumWires) || int(g.C) >= c.NumWires {
			return fmt.Errorf("circuit: gate %d references wire out of range", i)
		}
		if !written[g.A] {
			return fmt.Errorf("circuit: gate %d input A=%d used before definition", i, g.A)
		}
		if g.Op != INV && !written[g.B] {
			return fmt.Errorf("circuit: gate %d input B=%d used before definition", i, g.B)
		}
		if int(g.C) < nin {
			return fmt.Errorf("circuit: gate %d writes input wire %d", i, g.C)
		}
		if written[g.C] {
			return fmt.Errorf("circuit: wire %d written more than once (gate %d)", g.C, i)
		}
		written[g.C] = true
	}
	for _, o := range c.Outputs {
		if int(o) >= c.NumWires {
			return fmt.Errorf("circuit: output wire %d out of range", o)
		}
		if !written[o] {
			return fmt.Errorf("circuit: output wire %d never written", o)
		}
	}
	return nil
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := *c
	out.Outputs = append([]Wire(nil), c.Outputs...)
	out.Gates = append([]Gate(nil), c.Gates...)
	return &out
}
