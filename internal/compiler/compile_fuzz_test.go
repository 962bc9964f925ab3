package compiler

import (
	"math/rand"
	"slices"
	"testing"

	"haac/internal/circuit"
)

// FuzzCompileExecute is a differential target: a random circuit compiled
// under a decoded configuration must execute to circuit.Eval's outputs.
// ge+1 is the GE count, so every byte is a legal one (1..MaxGEs); the
// seed corpus under testdata/fuzz covers 65 and 256 GEs, the first GE
// past one bitset word and the largest count.
func FuzzCompileExecute(f *testing.F) {
	f.Add(int64(1), uint8(FullReorder), uint16(60), uint16(0), false, uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, mode uint8, sww, segWires uint16, noSWW bool, ge uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.RandomCircuit(rng)
		cfg := Config{
			Reorder:      ReorderMode(mode % 3),
			ESW:          true,
			SWWWires:     4 + int(sww),
			SegmentWires: int(segWires),
			NoSWW:        noSWW,
			NumGEs:       int(ge) + 1,
		}
		cp, err := Compile(c, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		g, e := randBits(rng, c.GarblerInputs), randBits(rng, c.EvaluatorInputs)
		want, err := c.Eval(g, e)
		if err != nil {
			t.Fatal(err)
		}
		in, err := cp.InputBits(c, g, e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cp.Execute(in)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%+v: Execute %v, Eval %v", cfg, got, want)
		}
	})
}
