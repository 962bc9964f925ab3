package circuit_test

import (
	"fmt"
	"math/rand"
	"testing"

	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
	"haac/internal/workloads"
)

// The schedule must not show in the bytes: whatever the segment size and
// the worker count, the plan engine garbles the tables the reference
// gc.Garble does and evaluates to the labels gc.Evaluate does. The tests
// live here, outside package circuit, because they need internal/gc
// (which imports circuit) and the unexported segment-size hook.

// checkSegmentedByteIdentity compares the plan engine against the
// reference on one circuit at one segment size.
func checkSegmentedByteIdentity(t *testing.T, name string, c *circuit.Circuit, g, e []bool, segANDs int, seed uint64) {
	t.Helper()
	h := gc.RekeyedHasher{}
	p, err := circuit.NewPlanSegmented(c, segANDs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if p.NumSlots != p.PeakLive {
		t.Fatalf("%s: NumSlots %d != PeakLive %d", name, p.NumSlots, p.PeakLive)
	}
	want, err := gc.Garble(c, h, label.NewSource(seed))
	if err != nil {
		t.Fatalf("%s: reference garble: %v", name, err)
	}
	in, err := want.EncodeInputs(c, g, e)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wantOut, err := gc.Evaluate(c, h, in, want.Tables)
	if err != nil {
		t.Fatalf("%s: reference evaluate: %v", name, err)
	}
	for _, workers := range []int{1, 4} {
		got, err := gc.GarblePlan(p, h, label.NewSource(seed), workers)
		if err != nil {
			t.Fatalf("%s/w=%d: %v", name, workers, err)
		}
		if got.R != want.R || len(got.Tables) != len(want.Tables) {
			t.Fatalf("%s/w=%d: offset or table count differs from the reference", name, workers)
		}
		for i := range want.Tables {
			if got.Tables[i] != want.Tables[i] {
				t.Fatalf("%s/w=%d: table %d differs from the reference", name, workers, i)
			}
		}
		for i := range want.OutputZeros {
			if got.OutputZeros[i] != want.OutputZeros[i] {
				t.Fatalf("%s/w=%d: output zero-label %d differs from the reference", name, workers, i)
			}
		}
		out, err := gc.EvalPlan(p, h, in, want.Tables, workers)
		if err != nil {
			t.Fatalf("%s/w=%d: %v", name, workers, err)
		}
		for i := range wantOut {
			if out[i] != wantOut[i] {
				t.Fatalf("%s/w=%d: output label %d differs from the reference", name, workers, i)
			}
		}
	}
}

func segmentSizes(c *circuit.Circuit) []int {
	and, _, _ := c.CountOps()
	return []int{1, 7, circuit.SegmentANDs, and + 1}
}

func TestSegmentedByteIdentityRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 40; trial++ {
		c := circuit.RandomCircuit(rng)
		g, e := make([]bool, c.GarblerInputs), make([]bool, c.EvaluatorInputs)
		for i := range g {
			g[i] = rng.Intn(2) == 1
		}
		for i := range e {
			e[i] = rng.Intn(2) == 1
		}
		for _, segANDs := range segmentSizes(c) {
			checkSegmentedByteIdentity(t, fmt.Sprintf("random %d/seg=%d", trial, segANDs), c, g, e, segANDs, uint64(trial)+1)
		}
	}
}

func TestSegmentedByteIdentityVIPSuite(t *testing.T) {
	for _, w := range workloads.VIPSuiteSmall() {
		c := w.Build()
		g, e := w.Inputs(14)
		for _, segANDs := range segmentSizes(c) {
			checkSegmentedByteIdentity(t, fmt.Sprintf("%s/seg=%d", w.Name, segANDs), c, g, e, segANDs, 0xfeedface)
		}
	}
}
