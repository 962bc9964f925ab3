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
	plain, err := c.Eval(aliceBits, bobBits)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Real two-party execution: garbling with re-keyed half-gates,
	// labels via oblivious transfer, tables streamed between the roles.
	secure, err := haac.Run2PC(c, aliceBits, bobBits, haac.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if secure[0] != plain[0] {
		log.Fatal("secure result disagrees with plaintext evaluation")
	}
	fmt.Printf("is Alice richer? %v (computed without revealing either value)\n", secure[0])

	// 3b. The same computation over a precompiled plan: the plan is
	// built once and reused by every run, and tables stream to the
	// evaluator the moment each segment is garbled — in software what
	// HAAC's table queues do in hardware.
	plan, err := haac.Precompile(c)
	if err != nil {
		log.Fatal(err)
	}
	fast, err := haac.Run2PC(c, aliceBits, bobBits, haac.RunOptions{Plan: plan})
	if err != nil {
		log.Fatal(err)
	}
	if fast[0] != plain[0] {
		log.Fatal("planned result disagrees with plaintext evaluation")
	}
	fmt.Println("planned 2PC agrees (one compiled plan, streamed tables)")

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
		res.Time(), haac.AreaOf(cp.Cfg), haac.EnergyOf(res).Total())
}

func bits32(v uint64) []bool {
	out := make([]bool, 32)
	for i := range out {
		out[i] = v>>uint(i)&1 == 1
	}
	return out
}
