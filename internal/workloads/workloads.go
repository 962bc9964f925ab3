// Package workloads re-implements the paper's evaluation programs as
// Boolean-circuit generators: the eight VIP-Bench benchmarks of Table 2
// (at the scaled input sizes §5 describes) and the §6.6/Table 5
// micro-benchmarks used to compare against prior accelerators.
//
// Every workload carries three synchronized artifacts:
//
//   - Build: the circuit (garbled / compiled / simulated elsewhere);
//   - Inputs: a deterministic input generator;
//   - Reference: a native Go implementation producing the expected
//     output bits, used both as the correctness oracle for end-to-end
//     tests and as the plaintext-CPU baseline for Fig. 10.
package workloads

import (
	"fmt"
	"math/rand"
	"strings"

	"haac/internal/circuit"
)

// Workload bundles a named benchmark circuit with its oracle.
type Workload struct {
	// Name is the benchmark's short name, matching the paper's tables.
	Name string
	// Description explains the computation and its parameters.
	Description string
	// Build constructs the circuit. Generators are deterministic.
	Build func() *circuit.Circuit
	// Inputs returns deterministic garbler/evaluator input bits.
	Inputs func(seed int64) (g, e []bool)
	// Reference computes the expected output bits natively.
	Reference func(g, e []bool) []bool
	// PlainOps returns the approximate number of plaintext ALU
	// operations one execution performs; used to report the GC-vs-
	// plaintext overhead factor alongside measured plaintext time.
	PlainOps int
}

// Check builds the circuit, evaluates it on inputs from seed, and
// verifies the outputs against Reference. It returns the circuit so
// callers can reuse it.
func (w Workload) Check(seed int64) (*circuit.Circuit, error) {
	c := w.Build()
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	g, e := w.Inputs(seed)
	got, err := c.Eval(g, e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	want := w.Reference(g, e)
	if len(got) != len(want) {
		return nil, fmt.Errorf("%s: output length %d, reference %d", w.Name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return nil, fmt.Errorf("%s: output bit %d = %v, reference %v", w.Name, i, got[i], want[i])
		}
	}
	return c, nil
}

// words/bits conversion helpers shared by the generators.

func randWords(rng *rand.Rand, n, width int) []uint64 {
	ws := make([]uint64, n)
	mask := uint64(1)<<uint(width) - 1
	if width >= 64 {
		mask = ^uint64(0)
	}
	for i := range ws {
		ws[i] = rng.Uint64() & mask
	}
	return ws
}

func wordsToBits(ws []uint64, width int) []bool {
	bits := make([]bool, 0, len(ws)*width)
	for _, w := range ws {
		bits = append(bits, circuit.UintToBools(w, width)...)
	}
	return bits
}

func bitsToWords(bits []bool, width int) []uint64 {
	ws := make([]uint64, len(bits)/width)
	for i := range ws {
		ws[i] = circuit.BoolsToUint(bits[i*width : (i+1)*width])
	}
	return ws
}

// VIPSuite returns the eight VIP-Bench workloads at the paper's scaled
// input sizes (§5): 128-element 32-bit dot product, 8×8 integer matrix
// multiply, 40960-bit Hamming distance, 2048 ReLU evaluations, 20 rounds
// of floating-point gradient descent, and our chosen scales for bubble
// sort, Mersenne-Twister and triangle counting (documented per
// generator). Order matches Table 2.
func VIPSuite() []Workload {
	return []Workload{
		BubbleSort(245, 32),
		DotProduct(128, 32),
		Mersenne(624, 32),
		TriangleCount(160),
		Hamming(40960),
		MatMult(8, 32),
		ReLU(2048, 32),
		GradDesc(12, 20),
	}
}

// VIPSuiteSmall returns reduced-size variants of the same eight
// workloads, used by tests and quick benchmark runs.
func VIPSuiteSmall() []Workload {
	return []Workload{
		BubbleSort(8, 16),
		DotProduct(8, 16),
		Mersenne(8, 4),
		TriangleCount(10),
		Hamming(128),
		MatMult(3, 16),
		ReLU(8, 32),
		GradDesc(4, 2),
	}
}

// Find returns the workload called name, ignoring case, from the VIP
// suite (at its reduced sizes when small) and the micro suite. An
// unknown name's error lists the available ones.
func Find(name string, small bool) (Workload, error) {
	suite := VIPSuite()
	if small {
		suite = VIPSuiteSmall()
	}
	suite = append(suite, MicroSuite()...)
	names := make([]string, len(suite))
	for i, w := range suite {
		if strings.EqualFold(w.Name, name) {
			return w, nil
		}
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q; available: %s", name, strings.Join(names, ", "))
}
