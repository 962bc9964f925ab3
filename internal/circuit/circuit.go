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
// [0, NumWires()): the input-like wires first, then one wire per gate,
// gate i writing wire NumInputs()+i.
type Wire = uint32

// Gate is one Boolean gate. Its output wire is its position: gate i of
// a circuit writes wire NumInputs()+i. For INV gates B is ignored.
type Gate struct {
	Op   Op
	A, B Wire // inputs
}

// Circuit is a straight-line Boolean circuit.
//
// Wire numbering convention: wires [0, NumInputs()) are the primary
// inputs — garbler inputs first, then evaluator inputs, then up to two
// constant wires — and gate i writes wire NumInputs()+i, so the slice
// order is the execution order and every wire is written once. Validate
// checks that each gate reads only wires written before it.
type Circuit struct {
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

	// Gates is the gate list in execution order.
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

// NumWires returns the total number of wires: the input-like wires and
// one per gate.
func (c *Circuit) NumWires() int { return c.NumInputs() + len(c.Gates) }

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

// Validate checks structural well-formedness: the circuit has a wire,
// the constant wires sit where NumInputs says, every gate has a known op
// and reads only wires written before it, and every output is a wire.
// It is O(gates) and allocates nothing.
func (c *Circuit) Validate() error {
	nin := c.NumInputs()
	if c.NumWires() == 0 {
		return errors.New("circuit: no wires")
	}
	if c.HasConst {
		base := Wire(c.GarblerInputs + c.EvaluatorInputs)
		if c.Const0 != base || c.Const1 != base+1 {
			return fmt.Errorf("circuit: constant wires must be %d,%d; got %d,%d",
				base, base+1, c.Const0, c.Const1)
		}
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Op != XOR && g.Op != AND && g.Op != INV {
			return fmt.Errorf("circuit: gate %d has unknown op %d", i, g.Op)
		}
		// Gate i writes wire nin+i, so it may read only wires below it.
		if int(g.A) >= nin+i || (g.Op != INV && int(g.B) >= nin+i) {
			return fmt.Errorf("circuit: gate %d reads a wire not written before it", i)
		}
	}
	for _, o := range c.Outputs {
		if int(o) >= c.NumWires() {
			return fmt.Errorf("circuit: output wire %d out of range", o)
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
