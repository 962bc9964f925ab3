package gc

import (
	"fmt"
	"sync"
	"testing"

	"haac/internal/label"
	"haac/internal/workloads"
)

// parallelCircuits are the circuits the determinism suite sweeps:
// shallow-wide, deep-narrow and mixed shapes from the real workload
// generators.
func parallelCircuits() []workloads.Workload {
	return []workloads.Workload{
		workloads.Hamming(128),
		workloads.Mult32(),
		workloads.DotProduct(4, 16),
		workloads.Millionaire(16),
		workloads.ReLU(8, 16),
	}
}

func equalGarbled(a, b *Garbled) error {
	if a.R != b.R {
		return fmt.Errorf("R differs: %s vs %s", a.R, b.R)
	}
	if len(a.InputZeros) != len(b.InputZeros) {
		return fmt.Errorf("input count differs")
	}
	for i := range a.InputZeros {
		if a.InputZeros[i] != b.InputZeros[i] {
			return fmt.Errorf("input zero %d differs", i)
		}
	}
	if len(a.Tables) != len(b.Tables) {
		return fmt.Errorf("table count differs: %d vs %d", len(a.Tables), len(b.Tables))
	}
	for i := range a.Tables {
		if a.Tables[i] != b.Tables[i] {
			return fmt.Errorf("table %d differs: %x vs %x", i, a.Tables[i].Bytes(), b.Tables[i].Bytes())
		}
	}
	if len(a.OutputZeros) != len(b.OutputZeros) {
		return fmt.Errorf("output count differs")
	}
	for i := range a.OutputZeros {
		if a.OutputZeros[i] != b.OutputZeros[i] {
			return fmt.Errorf("output zero %d differs", i)
		}
	}
	return nil
}

// TestPlanGarbleDeterminism is the engine's core invariant: for every
// worker count the plan garbler's output is byte-identical to the
// reference garbler, across circuits, seeds and both hashers.
func TestPlanGarbleDeterminism(t *testing.T) {
	hashers := []Hasher{RekeyedHasher{}, NewFixedKeyHasher([16]byte{9, 9})}
	for _, w := range parallelCircuits() {
		c := w.Build()
		p := mustPlan(t, c)
		for _, h := range hashers {
			for _, seed := range []uint64{1, 42, 0xfeedface} {
				want, err := Garble(c, h, label.NewSource(seed))
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4, 8} {
					got, err := GarblePlan(p, h, label.NewSource(seed), workers)
					if err != nil {
						t.Fatalf("%s/%s/seed=%d/w=%d: %v", w.Name, h.Name(), seed, workers, err)
					}
					if err := equalGarbled(want, got); err != nil {
						t.Fatalf("%s/%s/seed=%d/w=%d: %v", w.Name, h.Name(), seed, workers, err)
					}
				}
			}
		}
	}
}

// TestPlanEvalMatchesReference checks the evaluator side: same output
// labels as Evaluate for every worker count, and correct plaintext
// after decoding.
func TestPlanEvalMatchesReference(t *testing.T) {
	h := RekeyedHasher{}
	for _, w := range parallelCircuits() {
		c := w.Build()
		p := mustPlan(t, c)
		g, e := w.Inputs(7)
		want := w.Reference(g, e)

		garbled, err := Garble(c, h, label.NewSource(11))
		if err != nil {
			t.Fatal(err)
		}
		in, err := garbled.EncodeInputs(c, g, e)
		if err != nil {
			t.Fatal(err)
		}
		seqOut, err := Evaluate(c, h, in, garbled.Tables)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, 8} {
			parOut, err := EvalPlan(p, h, in, garbled.Tables, workers)
			if err != nil {
				t.Fatalf("%s/w=%d: %v", w.Name, workers, err)
			}
			for i := range seqOut {
				if parOut[i] != seqOut[i] {
					t.Fatalf("%s/w=%d: output label %d differs", w.Name, workers, i)
				}
			}
			bits, err := garbled.Decode(parOut)
			if err != nil {
				t.Fatalf("%s/w=%d: %v", w.Name, workers, err)
			}
			for i := range want {
				if bits[i] != want[i] {
					t.Fatalf("%s/w=%d: plaintext bit %d wrong", w.Name, workers, i)
				}
			}
		}
	}
}

// TestFixedKeyHasherConcurrent hammers one shared hasher from many
// goroutines; run under -race this proves the shared-cipher claim.
func TestFixedKeyHasherConcurrent(t *testing.T) {
	h := NewFixedKeyHasher([16]byte{42})
	l := label.L{Lo: 123, Hi: 456}
	want := h.Hash(l, 77)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if h.Hash(l, 77) != want {
					panic("fixed-key hash not stable under concurrency")
				}
			}
		}()
	}
	wg.Wait()
}
