// privateinference runs the paper's motivating application (§1): the
// non-linear layer of a private neural inference. A server owns model
// weights, a client owns an input vector; together they compute one
// fixed-point dense layer followed by ReLU — the exact GC bottleneck
// hybrid PI protocols accelerate — without either side revealing its
// data. The example checks the secure result against a native
// fixed-point model, then compiles the layer for HAAC and reports the
// estimated acceleration over the host's software garbler.
//
//	go run ./examples/privateinference
package main

import (
	"fmt"
	"log"
	"math/rand"

	"haac"
	"haac/internal/baseline"
	"haac/internal/gc"
)

const (
	inDim  = 16
	outDim = 4
	width  = 16 // Q8.8 fixed point
	frac   = 8
)

// buildLayer constructs out = ReLU(W x + b) in Q8.8 fixed point.
// Weights and biases are garbler inputs; the activation vector belongs
// to the evaluator.
func buildLayer(b *haac.Builder) *haac.Circuit {
	w := make([][]haac.Word, outDim)
	for o := range w {
		w[o] = make([]haac.Word, inDim)
		for i := range w[o] {
			w[o][i] = b.GarblerInputs(width)
		}
	}
	bias := make([]haac.Word, outDim)
	for o := range bias {
		bias[o] = b.GarblerInputs(width)
	}
	x := make([]haac.Word, inDim)
	for i := range x {
		x[i] = b.EvaluatorInputs(width)
	}
	for o := 0; o < outDim; o++ {
		// Accumulate in 2*width bits, then rescale by the fraction.
		acc := b.ExtendSign(bias[o], 2*width)
		acc = b.ShlConst(acc, frac)
		for i := 0; i < inDim; i++ {
			prod := b.Mul(b.ExtendSign(w[o][i], 2*width), b.ExtendSign(x[i], 2*width))
			acc = b.Add(acc, prod)
		}
		scaled := b.ShrArithConst(acc, frac)[:width]
		// ReLU.
		pos := b.NOT(scaled[width-1])
		out := make(haac.Word, width)
		for j := range out {
			out[j] = b.AND(scaled[j], pos)
		}
		b.OutputWord(out)
	}
	return b.MustBuild()
}

// fixed-point helpers.
func toFix(f float64) uint64 { return uint64(uint16(int16(f * (1 << frac)))) }
func fromFix(v uint64) float64 {
	return float64(int16(uint16(v))) / (1 << frac)
}

func main() {
	rng := rand.New(rand.NewSource(7))

	// Model (server-private) and input (client-private).
	weights := make([][]float64, outDim)
	biases := make([]float64, outDim)
	for o := range weights {
		weights[o] = make([]float64, inDim)
		for i := range weights[o] {
			weights[o][i] = rng.Float64()*2 - 1
		}
		biases[o] = rng.Float64() - 0.5
	}
	input := make([]float64, inDim)
	for i := range input {
		input[i] = rng.Float64()*2 - 1
	}

	// Pack inputs.
	var gBits, eBits []bool
	addWord := func(dst *[]bool, v uint64) {
		for j := 0; j < width; j++ {
			*dst = append(*dst, v>>uint(j)&1 == 1)
		}
	}
	for o := 0; o < outDim; o++ {
		for i := 0; i < inDim; i++ {
			addWord(&gBits, toFix(weights[o][i]))
		}
	}
	for o := 0; o < outDim; o++ {
		addWord(&gBits, toFix(biases[o]))
	}
	for i := 0; i < inDim; i++ {
		addWord(&eBits, toFix(input[i]))
	}

	c := buildLayer(haac.NewBuilder())
	s := c.ComputeStats()
	fmt.Printf("dense(%d->%d)+ReLU layer: %d gates (%d AND), depth %d\n",
		inDim, outDim, s.Gates, s.ANDGates, s.Levels)

	// Secure two-party execution.
	out, err := haac.Run2PC(c, gBits, eBits, haac.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nneuron   secure      native(f64)")
	for o := 0; o < outDim; o++ {
		var v uint64
		for j := 0; j < width; j++ {
			if out[o*width+j] {
				v |= 1 << uint(j)
			}
		}
		native := biases[o]
		for i := 0; i < inDim; i++ {
			native += weights[o][i] * input[i]
		}
		if native < 0 {
			native = 0
		}
		fmt.Printf("  %d      %8.4f    %8.4f\n", o, fromFix(v), native)
	}

	// Accelerator estimate vs the host's software garbler.
	cfg := haac.DefaultCompilerConfig()
	cfg.SWWWires = 8192
	cp, err := haac.Compile(c, cfg)
	if err != nil {
		log.Fatal(err)
	}
	hw := haac.DefaultHW()
	hw.DRAM = haac.HBM2
	res, err := haac.Simulate(cp, hw)
	if err != nil {
		log.Fatal(err)
	}
	cpu := baseline.MeasureCPU(gc.RekeyedHasher{}, true)
	cpuT := cpu.GCTime(s)
	fmt.Printf("\nCPU software GC:   %v\nHAAC (16 GE, HBM2): %v  -> %.0fx\n",
		cpuT, res.Time(), cpuT.Seconds()/res.Time().Seconds())
	fmt.Println("\n(small differences between columns are Q8.8 quantization)")
}
