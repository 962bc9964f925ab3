// Package builder is the high-level circuit-construction frontend of the
// repository, standing in for the EMP C++ toolkit in the paper's flow
// (Fig. 5: C++ → EMP → Bristol → HAAC assembler). Programs are written
// against Word (little-endian bit-vector) operations — adders,
// multipliers, comparators, muxes, shifters, IEEE-754 binary32
// arithmetic — and the builder lowers them to the AND/XOR/INV gate IR in
// internal/circuit.
//
// Like EMP, the builder performs local constant folding and
// double-negation elimination so that, e.g., masking with public
// constants (Mersenne-Twister's tempering masks) costs no gates.
package builder

import (
	"fmt"

	"haac/internal/circuit"
)

// Wire aliases circuit.Wire for convenience.
type Wire = circuit.Wire

// internal builder wire-id space (remapped in Build):
//
//	0       const0
//	1       const1
//	2...    inputs and gate outputs, in allocation order
const (
	idConst0 Wire = 0
	idConst1 Wire = 1
)

type inputDecl struct {
	id      Wire
	garbler bool
}

// Gates are stored in chunks that are never regrown, so emitting never
// copies a gate already stored. Chunk capacity doubles from firstChunk
// up to maxChunk.
const (
	firstChunk = 1 << 8
	maxChunk   = 1 << 16
)

// B incrementally constructs a circuit.
type B struct {
	next Wire
	// gates is the chunk being filled; full holds the chunks before it
	// and nFull their gate count. Build flattens them into the circuit.
	gates  []circuit.Gate
	full   [][]circuit.Gate
	nFull  int
	inputs []inputDecl

	// notOf is indexed by wire id: notOf[w] is the cached complement of
	// w, or 0 if none has been emitted yet. Every wire >= 2 has a
	// complement >= 2, so 0 is free as the marker. NOT is emitted once
	// per wire and NOT(NOT(x)) folds to x. The constants 0 and 1 are
	// identified by id and never enter the table.
	notOf []Wire

	outputs   []Wire
	usedConst bool
	built     bool
}

// New returns an empty builder.
func New() *B {
	return &B{next: 2} // 0,1 reserved for constants
}

// NumGates returns the number of gates emitted so far.
func (b *B) NumGates() int { return b.nFull + len(b.gates) }

// GarblerInputs allocates n fresh garbler-owned input bits.
func (b *B) GarblerInputs(n int) Word { return b.declInputs(n, true) }

// EvaluatorInputs allocates n fresh evaluator-owned input bits.
func (b *B) EvaluatorInputs(n int) Word { return b.declInputs(n, false) }

func (b *B) declInputs(n int, garbler bool) Word {
	w := make(Word, n)
	for i := range w {
		id := b.next
		b.next++
		b.inputs = append(b.inputs, inputDecl{id: id, garbler: garbler})
		w[i] = id
	}
	return w
}

// Const returns the public constant wire for v.
func (b *B) Const(v bool) Wire {
	b.usedConst = true
	if v {
		return idConst1
	}
	return idConst0
}

// IsConst reports whether w is a public constant and its value.
func (b *B) IsConst(w Wire) (bool, bool) {
	return w < 2, w == idConst1
}

func (b *B) emit(op circuit.Op, a, bb Wire) Wire {
	if len(b.gates) == cap(b.gates) {
		b.newChunk()
	}
	c := b.next
	b.next++
	b.gates = append(b.gates, circuit.Gate{Op: op, A: a, B: bb})
	return c
}

// newChunk retires the full current chunk and starts an empty one.
func (b *B) newChunk() {
	size := 2 * cap(b.gates)
	if len(b.gates) > 0 {
		b.full = append(b.full, b.gates)
		b.nFull += len(b.gates)
	}
	b.gates = make([]circuit.Gate, 0, min(max(size, firstChunk), maxChunk))
}

// XOR returns a ^ b, folding constants and duplicate operands.
func (b *B) XOR(x, y Wire) Wire {
	if x == y {
		return b.Const(false)
	}
	if kx, vx := b.IsConst(x); kx {
		if ky, vy := b.IsConst(y); ky {
			return b.Const(vx != vy)
		}
		if vx {
			return b.NOT(y)
		}
		return y
	}
	if ky, vy := b.IsConst(y); ky {
		if vy {
			return b.NOT(x)
		}
		return x
	}
	// Complemented operands are not folded: NOT(a) ^ NOT(b) and
	// NOT(a) ^ b are emitted as written, INV gates included.
	return b.emit(circuit.XOR, x, y)
}

// AND returns a & b, folding constants and duplicate operands.
func (b *B) AND(x, y Wire) Wire {
	if x == y {
		return x
	}
	if kx, vx := b.IsConst(x); kx {
		if !vx {
			return b.Const(false)
		}
		return y
	}
	if ky, vy := b.IsConst(y); ky {
		if !vy {
			return b.Const(false)
		}
		return x
	}
	if int(x) < len(b.notOf) && b.notOf[x] == y {
		return b.Const(false) // a & ~a
	}
	return b.emit(circuit.AND, x, y)
}

// NOT returns ~x; complements are cached so the gate is emitted at most
// once per wire and NOT(NOT(x)) folds to x. The complement of a
// constant is the other constant.
func (b *B) NOT(x Wire) Wire {
	if x < 2 {
		return x ^ 1
	}
	if int(x) < len(b.notOf) {
		if n := b.notOf[x]; n != 0 {
			return n
		}
	}
	n := b.emit(circuit.INV, x, 0)
	if int(n) >= len(b.notOf) {
		// n is the newest wire; doubling keeps the copies amortised.
		t := make([]Wire, max(2*len(b.notOf), int(n)+1))
		copy(t, b.notOf)
		b.notOf = t
	}
	b.notOf[x] = n
	b.notOf[n] = x
	return n
}

// OR returns a | b via De Morgan (one AND gate).
func (b *B) OR(x, y Wire) Wire {
	return b.NOT(b.AND(b.NOT(x), b.NOT(y)))
}

// MUX returns s ? t : f using the single-AND form f ^ (s & (t ^ f)).
func (b *B) MUX(s, t, f Wire) Wire {
	if ks, vs := b.IsConst(s); ks {
		if vs {
			return t
		}
		return f
	}
	if t == f {
		return t
	}
	return b.XOR(f, b.AND(s, b.XOR(t, f)))
}

// Output appends wires to the circuit's primary outputs.
func (b *B) Output(ws ...Wire) { b.outputs = append(b.outputs, ws...) }

// OutputWord appends all bits of w to the primary outputs.
func (b *B) OutputWord(w Word) { b.outputs = append(b.outputs, w...) }

// Build finalizes the circuit, renumbering wires into the convention of
// internal/circuit: garbler inputs, evaluator inputs, constants (if
// used), then gate outputs in emission order. Build may be called once.
func (b *B) Build() (*circuit.Circuit, error) {
	if b.built {
		return nil, fmt.Errorf("builder: Build called twice")
	}
	b.built = true

	// Outputs referencing constant wires force constant materialization.
	// No gate reads one: XOR and AND fold constant operands, and NOT of
	// a constant is the other constant.
	for _, o := range b.outputs {
		if o < 2 {
			b.usedConst = true
		}
	}

	// The complement table is dead from here on; it becomes the
	// renumbering map when it is large enough. Every entry is written
	// before it is read.
	remap := b.notOf[:cap(b.notOf)]
	b.notOf = nil
	if len(remap) < int(b.next) {
		remap = make([]Wire, b.next)
	}
	var ng, ne int
	for _, in := range b.inputs {
		if in.garbler {
			ng++
		} else {
			ne++
		}
	}
	// Assign garbler inputs first, then evaluator inputs, in declaration
	// order within each party.
	gi, ei := 0, ng
	for _, in := range b.inputs {
		if in.garbler {
			remap[in.id] = Wire(gi)
			gi++
		} else {
			remap[in.id] = Wire(ei)
			ei++
		}
	}
	base := Wire(ng + ne)
	c := &circuit.Circuit{
		GarblerInputs:   ng,
		EvaluatorInputs: ne,
	}
	if b.usedConst {
		c.HasConst = true
		c.Const0 = base
		c.Const1 = base + 1
		remap[idConst0] = base
		remap[idConst1] = base + 1
		base += 2
	}
	// One pass over the chunks: a gate's operands are inputs or earlier
	// gate outputs, so they are renumbered before the gate is reached.
	// Inputs and gate outputs draw ids from one sequence, so gate i's
	// output is the i-th id from 2 on that no input took.
	c.Gates = make([]circuit.Gate, b.NumGates())
	i, id, in := 0, Wire(2), 0
	for _, chunk := range append(b.full, b.gates) {
		for _, g := range chunk {
			for ; in < len(b.inputs) && b.inputs[in].id == id; in++ {
				id++
			}
			remap[id], id = base+Wire(i), id+1
			r := circuit.Gate{Op: g.Op, A: remap[g.A]}
			if g.Op != circuit.INV {
				r.B = remap[g.B]
			}
			c.Gates[i] = r
			i++
		}
	}
	b.full, b.gates = nil, nil
	c.Outputs = make([]Wire, len(b.outputs))
	for i, o := range b.outputs {
		c.Outputs[i] = remap[o]
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("builder: produced invalid circuit: %w", err)
	}
	return c, nil
}

// MustBuild is Build that panics on error, for tests and generators whose
// construction is statically known to be valid.
func (b *B) MustBuild() *circuit.Circuit {
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}
