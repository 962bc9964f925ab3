// Package baseline provides the two denominators of the paper's
// evaluation: the software garbled-circuits CPU baseline (EMP Toolkit on
// an i7-10700K in the paper; our own Go garbler measured on the host
// here) and native plaintext execution (Fig. 10).
//
// Because absolute CPU numbers depend on the host, the package measures
// per-gate garbling/evaluation costs once with a calibration circuit and
// extrapolates by gate counts — the same first-order model the paper's
// "gates/second" comparisons use. The paper's published reference
// numbers are kept alongside so EXPERIMENTS.md can report both.
package baseline

import (
	"time"

	"haac/internal/builder"
	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
)

// CPUModel is a per-gate cost model for software GC on the host.
type CPUModel struct {
	// NsPerAND and NsPerXOR are per-gate costs in nanoseconds.
	NsPerAND float64
	NsPerXOR float64
	// Hasher names the garbling hash that was measured.
	Hasher string
	// Evaluator indicates whether evaluation (vs garbling) was measured.
	Evaluator bool
}

// GCTime extrapolates the software GC time for a circuit.
func (m CPUModel) GCTime(s circuit.Stats) time.Duration {
	ns := float64(s.ANDGates)*m.NsPerAND + float64(s.Gates-s.ANDGates)*m.NsPerXOR
	return time.Duration(ns) * time.Nanosecond
}

// calibrationCircuit builds a mixed AND/XOR circuit big enough to time
// reliably: a chain of 32-bit multiplies.
func calibrationCircuit() *circuit.Circuit {
	b := builder.New()
	x := b.GarblerInputs(32)
	y := b.EvaluatorInputs(32)
	acc := x
	for i := 0; i < 8; i++ {
		acc = b.Mul(acc, y)
	}
	b.OutputWord(acc)
	return b.MustBuild()
}

// measurePasses is how many timing passes MeasureCPU keeps the fastest
// of, per circuit.
const measurePasses = 12

// MeasureCPU times the software garbler (and optionally evaluator) on
// the host and solves for per-gate costs. The XOR cost is obtained from
// a second, XOR-only circuit. The hashers are stateless and
// allocation-free, so the model prices hashing, not garbage collection
// or one-time setup.
func MeasureCPU(h gc.Hasher, evaluator bool) CPUModel {
	mixed := calibrationCircuit()
	stats := mixed.ComputeStats()

	xorOnly := func() *circuit.Circuit {
		b := builder.New()
		x := b.GarblerInputs(64)
		w := x
		for i := 0; i < 400; i++ {
			nw := make(builder.Word, 64)
			for j := range nw {
				nw[j] = b.XOR(w[j], w[(j+13)%64])
			}
			w = nw
		}
		b.OutputWord(w)
		return b.MustBuild()
	}()
	xorStats := xorOnly.ComputeStats()

	timeGarble := func(c *circuit.Circuit) time.Duration {
		src := label.NewSource(1)
		start := time.Now()
		if evaluator {
			g, err := gc.Garble(c, h, src)
			if err != nil {
				panic(err)
			}
			in, err := g.EncodeInputs(c, make([]bool, c.GarblerInputs), make([]bool, c.EvaluatorInputs))
			if err != nil {
				panic(err)
			}
			start = time.Now()
			if _, err := gc.Evaluate(c, h, in, g.Tables); err != nil {
				panic(err)
			}
		} else {
			if _, err := gc.Garble(c, h, src); err != nil {
				panic(err)
			}
		}
		return time.Since(start)
	}

	// Each timing is one pass of a millisecond or less; keep the fastest
	// of several so a page fault, a collection or a scheduler hiccup in
	// one pass does not become the per-gate cost (an AND on AES-NI is
	// tens of nanoseconds, small against any of them). The two circuits
	// take turns, so a slow phase of the host lands on both figures
	// rather than on one side of their ratio.
	xorTime, mixedTime := timeGarble(xorOnly), timeGarble(mixed)
	for i := 1; i < measurePasses; i++ {
		xorTime = min(xorTime, timeGarble(xorOnly))
		mixedTime = min(mixedTime, timeGarble(mixed))
	}
	nsXOR := float64(xorTime.Nanoseconds()) / float64(xorStats.Gates)

	nonAND := float64(stats.Gates - stats.ANDGates)
	nsAND := (float64(mixedTime.Nanoseconds()) - nonAND*nsXOR) / float64(stats.ANDGates)
	if nsAND < nsXOR {
		nsAND = nsXOR // timing noise floor on tiny hosts
	}
	return CPUModel{NsPerAND: nsAND, NsPerXOR: nsXOR, Hasher: h.Name(), Evaluator: evaluator}
}

// PaperCPU holds reference throughputs from the paper for reporting
// next to host-measured numbers: EMP with AES-NI garbles tens of
// millions of gates per second; the paper's GPU comparison (§6.6) quotes
// 75 M gates/s for a GPU and 8.7 B gates/s for HAAC.
type PaperCPU struct {
	// AvgGCSlowdownVsPlain is the paper's 198,000x average CPU GC
	// slowdown over plaintext across VIP-Bench (§1).
	AvgGCSlowdownVsPlain float64
	// HAACSpeedupDDR4 and HAACSpeedupHBM2 are the headline geomean
	// speedups (§6.5).
	HAACSpeedupDDR4 float64
	HAACSpeedupHBM2 float64
	// GarblerVsEvaluatorCPU is the §6.1 "garbling is 11.9% slower".
	GarblerVsEvaluatorCPU float64
}

// PaperNumbers are the published values used in EXPERIMENTS.md.
var PaperNumbers = PaperCPU{
	AvgGCSlowdownVsPlain:  198000,
	HAACSpeedupDDR4:       589,
	HAACSpeedupHBM2:       2627,
	GarblerVsEvaluatorCPU: 1.119,
}

// TimePlain measures fn's wall time, repeating short runs for stability,
// and returns the per-execution duration.
func TimePlain(fn func()) time.Duration {
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		el := time.Since(start)
		if el > 10*time.Millisecond || reps >= 1<<20 {
			return el / time.Duration(reps)
		}
		reps *= 4
	}
}
