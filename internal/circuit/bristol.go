package circuit

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Bristol format support. The paper's toolchain (Fig. 5) goes
// C++ → EMP → Bristol netlist → HAAC assembler; this file reads the
// Bristol side so externally produced netlists can be fed to the
// compiler and simulator.
//
// The classic ("old") Bristol format is:
//
//	<ngates> <nwires>
//	<n_garbler_inputs> <n_evaluator_inputs> <n_outputs>
//	2 1 <a> <b> <c> AND
//	2 1 <a> <b> <c> XOR
//	1 1 <a> <c> INV
//
// Output wires are, by convention, the last n_outputs wires of the
// circuit. Constant wires are not part of the format.

// maxBristolWires bounds the wire count a netlist header may claim. The
// renumber table takes 4 bytes per wire, so without a bound a short
// hostile header could exhaust memory; 2^26 caps the table at 256 MiB
// and is over 5x the largest paper workload (BubbSt, 11.5M wires).
const maxBristolWires = 1 << 26

// unwritten marks a renumber-table entry no input or gate has written.
const unwritten = ^Wire(0)

// ReadBristol parses a classic Bristol netlist. Its input is untrusted:
// every malformed or oversized netlist is an error, never a panic. A
// netlist may number its gate outputs in any order and leave gaps, so
// ReadBristol renumbers it onto the circuit invariant — the inputs keep
// their wires and the file's i-th gate writes wire NumInputs()+i — and
// checks there that the file writes each wire once, never an input, and
// reads none before it is written.
func ReadBristol(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	var ngates, nwires int
	if err := scanLine(sc, "header", &ngates, &nwires); err != nil {
		return nil, err
	}
	var nin1, nin2, nout int
	if err := scanLine(sc, "io header", &nin1, &nin2, &nout); err != nil {
		return nil, err
	}
	switch {
	case ngates < 0 || nwires < 0 || nin1 < 0 || nin2 < 0 || nout < 0:
		return nil, fmt.Errorf("bristol: negative count in header %d %d / %d %d %d", ngates, nwires, nin1, nin2, nout)
	case nwires > maxBristolWires:
		return nil, fmt.Errorf("bristol: %d wires exceed the limit of %d", nwires, maxBristolWires)
	case nin1 > nwires || nin2 > nwires-nin1:
		return nil, fmt.Errorf("bristol: %d+%d inputs exceed %d wires", nin1, nin2, nwires)
	case nout > nwires:
		return nil, fmt.Errorf("bristol: %d outputs exceed %d wires", nout, nwires)
	}
	c := &Circuit{
		GarblerInputs:   nin1,
		EvaluatorInputs: nin2,
	}
	nin := nin1 + nin2
	// ren maps a file wire to its circuit wire, or to unwritten.
	ren := make([]Wire, nwires)
	for w := range ren {
		ren[w] = unwritten
		if w < nin {
			ren[w] = Wire(w)
		}
	}
	// The header's gate count is untrusted: Gates grows as gates are read.
	for len(c.Gates) < ngates {
		if !sc.Scan() {
			return nil, fmt.Errorf("bristol: expected %d gates, got %d", ngates, len(c.Gates))
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		op := f[len(f)-1]
		switch {
		case (op == "AND" || op == "XOR") && len(f) == 6 && f[0] == "2" && f[1] == "1":
		case (op == "INV" || op == "NOT") && len(f) == 5 && f[0] == "1" && f[1] == "1":
		default:
			return nil, fmt.Errorf("bristol: malformed or unsupported gate %q", line)
		}
		// The wires sit between the two arity fields and the op, the
		// output last.
		var w [3]Wire
		ws := f[2 : len(f)-1]
		for k, field := range ws {
			v, err := strconv.Atoi(field)
			if err != nil || v < 0 || v >= nwires {
				return nil, fmt.Errorf("bristol: bad wire %q in %q", field, line)
			}
			if k < len(ws)-1 && ren[v] == unwritten {
				return nil, fmt.Errorf("bristol: gate %q reads wire %d before it is written", line, v)
			}
			w[k] = Wire(v)
		}
		out := w[len(ws)-1]
		if ren[out] != unwritten {
			return nil, fmt.Errorf("bristol: gate %q writes wire %d, an input or a wire already written", line, out)
		}
		g := Gate{Op: XOR, A: ren[w[0]], B: ren[w[1]]}
		switch op {
		case "AND":
			g.Op = AND
		case "INV", "NOT":
			g = Gate{Op: INV, A: ren[w[0]]}
		}
		ren[out] = Wire(nin + len(c.Gates))
		c.Gates = append(c.Gates, g)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bristol: %w", err)
	}
	c.Outputs = make([]Wire, nout)
	for i := range c.Outputs {
		w := nwires - nout + i
		if ren[w] == unwritten {
			return nil, fmt.Errorf("bristol: output wire %d never written", w)
		}
		c.Outputs[i] = ren[w]
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("bristol: parsed circuit invalid: %w", err)
	}
	return c, nil
}

// scanLine reads the next non-blank line as exactly len(dst) decimal
// integers, the same syntax gate lines take their wires in.
func scanLine(sc *bufio.Scanner, what string, dst ...*int) error {
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		for i, field := range f {
			v, err := strconv.Atoi(field)
			if err != nil || len(f) != len(dst) {
				return fmt.Errorf("bristol: malformed %s line %q", what, sc.Text())
			}
			*dst[i] = v
		}
		return nil
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("bristol: %w", err)
	}
	return fmt.Errorf("bristol: missing %s line", what)
}
