// Quickstart: build a circuit with the public API, check it against
// plaintext evaluation, run it as a real garbled two-party computation,
// then compile it for the HAAC accelerator and report estimated
// performance.
//
// The function is Yao's millionaires' problem: two parties learn who is
// richer without revealing their wealth.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"haac"
)

func main() {
	// 1. Build the circuit: alice > bob over 32-bit values.
	b := haac.NewBuilder()
	alice := b.GarblerInputs(32)
	bob := b.EvaluatorInputs(32)
	b.Output(b.GtU(alice, bob))
	c := b.MustBuild()

	s := c.ComputeStats()
	fmt.Printf("circuit: %d gates (%d AND), depth %d\n", s.Gates, s.ANDGates, s.Levels)

	aliceWealth, bobWealth := uint64(1_500_000), uint64(2_100_000)
	aliceBits := bits32(aliceWealth)
	bobBits := bits32(bobWealth)

	// 2. Plaintext evaluation (the functional model).
	plain, err := haac.Eval(c, aliceBits, bobBits)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Real two-party execution: garbling with re-keyed half-gates,
	// labels via oblivious transfer, tables streamed between the roles.
	secure, err := haac.Run2PC(c, aliceBits, bobBits)
	if err != nil {
		log.Fatal(err)
	}
	if secure[0] != plain[0] {
		log.Fatal("secure result disagrees with plaintext evaluation")
	}
	fmt.Printf("is Alice richer? %v (computed without revealing either value)\n", secure[0])

	// 3b. The same computation over a precompiled plan with an 8-wide
	// engine: the plan is built once and reused by every run, the
	// independent gates of a schedule step are garbled by a worker pool,
	// and tables stream to the evaluator the moment they are ready —
	// in software what HAAC's gate engines and table queues do in
	// hardware. The garbled bytes are identical, so the worker count is
	// purely a throughput knob.
	plan, err := haac.Precompile(c)
	if err != nil {
		log.Fatal(err)
	}
	fast, err := haac.Run2PCWith(c, aliceBits, bobBits,
		haac.RunOptions{Workers: 8, Plan: plan})
	if err != nil {
		log.Fatal(err)
	}
	if fast[0] != plain[0] {
		log.Fatal("parallel result disagrees with plaintext evaluation")
	}
	fmt.Println("planned parallel 2PC agrees (8 workers, streamed tables)")

	// 4. Compile for the HAAC accelerator and estimate performance.
	cp, err := haac.Compile(c, haac.DefaultCompilerConfig())
	if err != nil {
		log.Fatal(err)
	}
	res, err := haac.Simulate(cp, haac.DefaultHW())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HAAC (16 GEs, 2 MB SWW, DDR4): %v, %.2f mm^2, %.3g J\n",
		res.Time(), haac.AreaOf(haac.DefaultHW()), haac.EnergyOf(res).Total())
}

func bits32(v uint64) []bool {
	out := make([]bool, 32)
	for i := range out {
		out[i] = v>>uint(i)&1 == 1
	}
	return out
}
