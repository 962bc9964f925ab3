// Package opt implements netlist-level circuit optimizations applied
// before HAAC compilation. The builder already folds constants while
// constructing circuits, but externally supplied netlists (the Bristol
// files of the paper's EMP flow, Fig. 5) arrive as-is; EMP-produced
// circuits routinely contain dead gates, constant subexpressions and
// duplicate gates. Every AND eliminated here saves four AES calls on a
// CPU and a Half-Gate pipeline pass plus a 32-byte table on HAAC.
//
// Passes (all semantics-preserving, verified by property tests):
//
//   - constant propagation: gates whose inputs are known constants fold
//     away; XOR-with-constant-one collapses INV chains;
//   - common subexpression elimination: structurally identical gates
//     (same op and normalized inputs) share one output;
//   - dead code elimination: gates that do not reach an output vanish.
package opt

import (
	"fmt"

	"haac/internal/circuit"
)

// Result reports what the optimizer did.
type Result struct {
	Before, After  int // gate counts
	ConstFolded    int
	CSEDeduped     int
	DeadEliminated int
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("opt: %d -> %d gates (const %d, cse %d, dce %d)",
		r.Before, r.After, r.ConstFolded, r.CSEDeduped, r.DeadEliminated)
}

const (
	unknown int8 = iota
	constFalse
	constTrue
)

// gateKey identifies a gate for CSE, with commutative inputs normalized.
type gateKey struct {
	op   circuit.Op
	a, b circuit.Wire
}

// Optimize returns an optimized copy of c and a transformation report.
// The input circuit is not modified.
func Optimize(c *circuit.Circuit) (*circuit.Circuit, Result, error) {
	if err := c.Validate(); err != nil {
		return nil, Result{}, fmt.Errorf("opt: %w", err)
	}
	res := Result{Before: len(c.Gates)}

	// Wire states: replacement target (union-find-ish single level since
	// we process in topological order), constant knowledge. repl maps a
	// wire of c to the emitted wire carrying its value: an input, or the
	// output nin+j of emitted gate j.
	nin := c.NumInputs()
	repl := make([]circuit.Wire, c.NumWires())
	for i := range nin {
		repl[i] = circuit.Wire(i)
	}
	konst := make([]int8, nin)
	if c.HasConst {
		konst[c.Const0] = constFalse
		konst[c.Const1] = constTrue
	}
	// notOf caches INV results for chain collapsing.
	notOf := make(map[circuit.Wire]circuit.Wire)
	seen := make(map[gateKey]circuit.Wire)

	out := &circuit.Circuit{
		GarblerInputs:   c.GarblerInputs,
		EvaluatorInputs: c.EvaluatorInputs,
		HasConst:        c.HasConst,
		Const0:          c.Const0,
		Const1:          c.Const1,
	}
	var gates []circuit.Gate
	emit := func(op circuit.Op, a, b circuit.Wire) circuit.Wire {
		// CSE lookup on normalized key.
		ka, kb := a, b
		if op != circuit.INV && kb < ka {
			ka, kb = kb, ka
		}
		key := gateKey{op: op, a: ka, b: kb}
		if w, ok := seen[key]; ok {
			res.CSEDeduped++
			return w
		}
		id := circuit.Wire(nin + len(gates))
		gates = append(gates, circuit.Gate{Op: op, A: a, B: b})
		seen[key] = id
		return id
	}

	for i := range c.Gates {
		g := c.Gates[i]
		a, b := repl[g.A], circuit.Wire(0)
		if g.Op != circuit.INV { // an INV gate's B is never read
			b = repl[g.B]
		}
		var newWire circuit.Wire
		folded := true
		switch g.Op {
		case circuit.XOR:
			ca, cb := constOf2(konst, a), constOf2(konst, b)
			switch {
			case a == b:
				newWire, folded = mustConstWire(c, constFalse), true
				if newWire == badWire {
					folded = false
				}
			case ca != unknown && cb != unknown:
				v := constFalse
				if (ca == constTrue) != (cb == constTrue) {
					v = constTrue
				}
				newWire = mustConstWire(c, v)
				if newWire == badWire {
					folded = false
				}
			case ca == constFalse:
				newWire = b
			case cb == constFalse:
				newWire = a
			case ca == constTrue:
				newWire, folded = emitNot(emit, notOf, b), true
			case cb == constTrue:
				newWire, folded = emitNot(emit, notOf, a), true
			default:
				folded = false
			}
		case circuit.AND:
			ca, cb := constOf2(konst, a), constOf2(konst, b)
			switch {
			case a == b:
				newWire = a
			case ca == constFalse || cb == constFalse:
				newWire = mustConstWire(c, constFalse)
				if newWire == badWire {
					folded = false
				}
			case ca == constTrue:
				newWire = b
			case cb == constTrue:
				newWire = a
			default:
				folded = false
			}
		case circuit.INV:
			ca := constOf2(konst, a)
			if ca != unknown {
				v := constTrue
				if ca == constTrue {
					v = constFalse
				}
				newWire = mustConstWire(c, v)
				if newWire == badWire {
					folded = false
				}
			} else {
				newWire, folded = emitNot(emit, notOf, a), true
			}
		}
		if !folded {
			newWire = emit(g.Op, a, b)
		} else {
			res.ConstFolded++
		}
		repl[nin+i] = newWire
	}

	// Resolve outputs through replacements.
	outputs := make([]circuit.Wire, len(c.Outputs))
	for i, o := range c.Outputs {
		outputs[i] = repl[o]
	}

	// DCE: walk back from outputs over the emitted gate list; the
	// producer of emitted wire w >= nin is gate w-nin.
	liveGate := make([]bool, len(gates))
	var stack []int
	markWire := func(w circuit.Wire) {
		if gi := int(w) - nin; gi >= 0 && !liveGate[gi] {
			liveGate[gi] = true
			stack = append(stack, gi)
		}
	}
	for _, o := range outputs {
		markWire(o)
	}
	for len(stack) > 0 {
		gi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := &gates[gi]
		markWire(g.A)
		if g.Op != circuit.INV {
			markWire(g.B)
		}
	}

	// Renumber: inputs keep their ids, live gates get dense ids.
	finalID := make([]circuit.Wire, len(gates))
	id := circuit.Wire(nin)
	for i := range gates {
		if liveGate[i] {
			finalID[i] = id
			id++
		} else {
			res.DeadEliminated++
		}
	}
	mapWire := func(w circuit.Wire) circuit.Wire {
		if int(w) >= nin {
			return finalID[int(w)-nin]
		}
		return w
	}
	for i := range gates {
		if !liveGate[i] {
			continue
		}
		g := gates[i]
		ng := circuit.Gate{Op: g.Op, A: mapWire(g.A)}
		if g.Op != circuit.INV {
			ng.B = mapWire(g.B)
		}
		out.Gates = append(out.Gates, ng)
	}
	out.Outputs = make([]circuit.Wire, len(outputs))
	for i, o := range outputs {
		out.Outputs[i] = mapWire(o)
	}
	res.After = len(out.Gates)
	if err := out.Validate(); err != nil {
		return nil, res, fmt.Errorf("opt: produced invalid circuit: %w", err)
	}
	return out, res, nil
}

// badWire signals that a constant cannot be materialized because the
// circuit lacks constant wires; the caller keeps the gate instead.
const badWire = ^circuit.Wire(0)

// mustConstWire returns the circuit's constant wire for v, or badWire if
// the circuit has none (folding to a constant is then skipped — the
// gate stays, which is safe).
func mustConstWire(c *circuit.Circuit, v int8) circuit.Wire {
	if !c.HasConst {
		return badWire
	}
	if v == constTrue {
		return c.Const1
	}
	return c.Const0
}

func constOf2(konst []int8, w circuit.Wire) int8 {
	if int(w) < len(konst) {
		return konst[w]
	}
	return unknown
}

// emitNot emits (or reuses) an INV gate, collapsing double negation.
func emitNot(emit func(circuit.Op, circuit.Wire, circuit.Wire) circuit.Wire,
	notOf map[circuit.Wire]circuit.Wire, a circuit.Wire) circuit.Wire {
	if n, ok := notOf[a]; ok {
		return n
	}
	n := emit(circuit.INV, a, 0)
	notOf[a] = n
	notOf[n] = a
	return n
}
