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

// maxBristolWires bounds the wire count a netlist header may claim.
// Validating the parsed circuit takes a byte per wire, so without a
// bound a short hostile header could exhaust memory. 2^28 is over 20x
// the largest paper workload (BubbSt, 11.5M wires).
const maxBristolWires = 1 << 28

// ReadBristol parses a classic Bristol netlist. Its input is untrusted:
// every malformed or oversized netlist is an error, never a panic.
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
		NumWires:        nwires,
		GarblerInputs:   nin1,
		EvaluatorInputs: nin2,
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
		case (op == "AND" || op == "XOR") && len(f) == 6:
		case (op == "INV" || op == "NOT") && len(f) == 5:
		default:
			return nil, fmt.Errorf("bristol: malformed or unsupported gate %q", line)
		}
		// The operand wires sit between the two arity fields and the op.
		var w [3]Wire
		for k, field := range f[2 : len(f)-1] {
			v, err := strconv.Atoi(field)
			if err != nil || v < 0 || v >= nwires {
				return nil, fmt.Errorf("bristol: bad wire %q in %q", field, line)
			}
			w[k] = Wire(v)
		}
		g := Gate{Op: XOR, A: w[0], B: w[1], C: w[2]}
		switch op {
		case "AND":
			g.Op = AND
		case "INV", "NOT":
			g = Gate{Op: INV, A: w[0], C: w[1]}
		}
		c.Gates = append(c.Gates, g)
	}
	c.Outputs = make([]Wire, nout)
	for i := range c.Outputs {
		c.Outputs[i] = Wire(nwires - nout + i)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bristol: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("bristol: parsed circuit invalid: %w", err)
	}
	return c, nil
}

func scanLine(sc *bufio.Scanner, what string, dst ...*int) error {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		args := make([]any, len(dst))
		for i := range dst {
			args[i] = dst[i]
		}
		if n, err := fmt.Sscan(line, args...); err != nil || n != len(dst) {
			return fmt.Errorf("bristol: malformed %s line %q", what, line)
		}
		return nil
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("bristol: %w", err)
	}
	return fmt.Errorf("bristol: missing %s line", what)
}
