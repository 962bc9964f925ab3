package compiler

import (
	"fmt"

	"haac/internal/circuit"
	"haac/internal/isa"
)

// Functional execution of compiled programs. The executor replays the
// per-GE streams exactly as the hardware would — including popping
// OoRW-queue entries for zero-address operands and writing each output
// to the address the PC implies — so it proves that the passes preserve
// the circuit's semantics, not just that the math was transcribed
// correctly: reordering, the rename/ESW lane, the GE scheduling lane,
// and the OoRW queue fill.

// InputBits assembles the program-input bit vector for a compiled
// circuit from the two parties' inputs: garbler bits, evaluator bits,
// the circuit's constant wires, and the compiler's synthetic
// constant-one wire when INV lowering added one.
func (cp *Compiled) InputBits(c *circuit.Circuit, garbler, evaluator []bool) ([]bool, error) {
	if len(garbler) != c.GarblerInputs || len(evaluator) != c.EvaluatorInputs {
		return nil, fmt.Errorf("compiler: input bits %d/%d, want %d/%d",
			len(garbler), len(evaluator), c.GarblerInputs, c.EvaluatorInputs)
	}
	bits := make([]bool, 0, cp.Program.NumInputs)
	bits = append(bits, garbler...)
	bits = append(bits, evaluator...)
	if c.HasConst {
		bits = append(bits, false, true)
	}
	if cp.SynthConstOne {
		bits = append(bits, true)
	}
	if len(bits) != cp.Program.NumInputs {
		return nil, fmt.Errorf("compiler: assembled %d input bits, program has %d",
			len(bits), cp.Program.NumInputs)
	}
	return bits, nil
}

// Execute runs the program functionally on plaintext bits, consuming the
// per-GE instruction and OoRW streams, and returns the program outputs.
func (cp *Compiled) Execute(inputs []bool) ([]bool, error) {
	p := &cp.Program
	if len(inputs) != p.NumInputs {
		return nil, fmt.Errorf("compiler: got %d input bits, want %d", len(inputs), p.NumInputs)
	}
	vals := make([]bool, p.MaxAddr()+1)
	written := make([]bool, p.MaxAddr()+1)
	for i, v := range inputs {
		a := isa.Addr(i)
		vals[a] = v
		written[a] = true
	}

	oorPos := make([]int, len(cp.OoRW))
	popOoR := func(g uint8) (uint32, error) {
		q := cp.OoRW[g]
		if oorPos[g] >= len(q) {
			return 0, fmt.Errorf("compiler: GE %d OoRW queue underflow", g)
		}
		a := q[oorPos[g]]
		oorPos[g]++
		return a, nil
	}

	// Program order is a linear extension of every per-GE stream, so
	// walking it pops each GE's OoRW queue in stream order.
	for j := range p.Instrs {
		in := &p.Instrs[j]
		if in.Op == isa.NOP {
			continue
		}
		g := cp.GEOf[j]
		resolve := func(field, saved uint32) (bool, error) {
			addr := field
			if field == isa.OoR {
				got, err := popOoR(g)
				if err != nil {
					return false, err
				}
				if saved != 0 && got != saved {
					return false, fmt.Errorf("compiler: instruction %d OoRW queue delivered %d, expected %d", j, got, saved)
				}
				addr = got
			}
			if !written[addr] {
				return false, fmt.Errorf("compiler: instruction %d reads unwritten wire %d", j, addr)
			}
			return vals[addr], nil
		}
		va, err := resolve(in.A, cp.oorA[j])
		if err != nil {
			return nil, err
		}
		vb, err := resolve(in.B, cp.oorB[j])
		if err != nil {
			return nil, err
		}
		var out bool
		switch in.Op {
		case isa.XOR:
			out = va != vb
		case isa.AND:
			out = va && vb
		}
		o := p.OutAddr(j)
		vals[o] = out
		written[o] = true
	}
	for g := range cp.OoRW {
		if oorPos[g] != len(cp.OoRW[g]) {
			return nil, fmt.Errorf("compiler: GE %d OoRW queue has %d unconsumed entries",
				g, len(cp.OoRW[g])-oorPos[g])
		}
	}

	out := make([]bool, len(p.OutputAddrs))
	for i, a := range p.OutputAddrs {
		if !written[a] {
			return nil, fmt.Errorf("compiler: program output wire %d never written", a)
		}
		out[i] = vals[a]
	}
	return out, nil
}
