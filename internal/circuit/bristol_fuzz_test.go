package circuit

import (
	"bufio"
	"bytes"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadBristol: ReadBristol parses netlists from outside the
// program, so no input may panic it or exhaust memory, and every
// circuit it accepts must be well formed and compute what the netlist
// computes in the file's own wire numbering.
func FuzzReadBristol(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadBristol(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted an invalid circuit: %v", err)
		}
		rng := rand.New(rand.NewSource(1))
		for range 4 {
			g, e := randomBits(rng, c.GarblerInputs), randomBits(rng, c.EvaluatorInputs)
			got, err := c.Eval(g, e)
			if err != nil {
				t.Fatal(err)
			}
			if want := evalBristolRaw(t, data, g, e); !slices.Equal(got, want) {
				t.Fatalf("inputs %v %v: circuit gives %v, netlist %v", g, e, got, want)
			}
		}
	})
}

// evalBristolRaw evaluates a netlist ReadBristol accepted directly in
// the file's wire numbering: a wire array of the header's size, each
// gate line writing its own output wire, the outputs the last wires.
func evalBristolRaw(t *testing.T, data []byte, garbler, evaluator []bool) []bool {
	t.Helper()
	var lines [][]string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) > 0 {
			lines = append(lines, f)
		}
	}
	num := func(s string) int {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("accepted netlist has field %q", s)
		}
		return v
	}
	ngates, nwires, nout := num(lines[0][0]), num(lines[0][1]), num(lines[1][2])
	vals := make([]bool, nwires)
	copy(vals, garbler)
	copy(vals[len(garbler):], evaluator)
	for _, f := range lines[2 : 2+ngates] {
		w := func(k int) bool { return vals[num(f[2+k])] }
		switch f[len(f)-1] {
		case "XOR":
			vals[num(f[4])] = w(0) != w(1)
		case "AND":
			vals[num(f[4])] = w(0) && w(1)
		default: // INV, NOT
			vals[num(f[3])] = !w(0)
		}
	}
	return vals[nwires-nout:]
}
