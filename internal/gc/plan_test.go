package gc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"haac/internal/circuit"
	"haac/internal/label"
	"haac/internal/workloads"
)

// mustPlan builds a plan or fails the test.
func mustPlan(t *testing.T, c *circuit.Circuit) *circuit.Plan {
	t.Helper()
	p, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// planCircuits are the circuits the determinism suite sweeps:
// shallow-wide, deep-narrow and mixed shapes from the real workload
// generators.
func planCircuits() []workloads.Workload {
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

// checkPlanByteIdentity asserts the full reference-vs-planned contract
// on one circuit: identical Garbled (R, input zeros, tables, output
// zeros), identical output labels from evaluation, identical decoded
// bits.
func checkPlanByteIdentity(t *testing.T, name string, c *circuit.Circuit, garbler, evaluator []bool, seed uint64) {
	t.Helper()
	h := RekeyedHasher{}
	p := mustPlan(t, c)

	want, err := Garble(c, h, label.NewSource(seed))
	if err != nil {
		t.Fatalf("%s: dense garble: %v", name, err)
	}
	got, err := GarblePlan(p, h, label.NewSource(seed))
	if err != nil {
		t.Fatalf("%s: plan garble: %v", name, err)
	}
	if err := equalGarbled(want, got); err != nil {
		t.Fatalf("%s: plan garble differs from dense: %v", name, err)
	}

	in, err := want.EncodeInputs(c, garbler, evaluator)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	seqOut, err := Evaluate(c, h, in, want.Tables)
	if err != nil {
		t.Fatalf("%s: dense eval: %v", name, err)
	}
	planOut, err := EvalPlan(p, h, in, want.Tables)
	if err != nil {
		t.Fatalf("%s: plan eval: %v", name, err)
	}
	if len(planOut) != len(seqOut) {
		t.Fatalf("%s: plan eval returned %d labels, want %d", name, len(planOut), len(seqOut))
	}
	for i := range seqOut {
		if planOut[i] != seqOut[i] {
			t.Fatalf("%s: output label %d differs between dense and planned eval", name, i)
		}
	}

	denseBits, err := want.Decode(seqOut)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	planBits, err := got.Decode(planOut)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := range denseBits {
		if planBits[i] != denseBits[i] {
			t.Fatalf("%s: decoded bit %d differs", name, i)
		}
	}
}

// TestPlanByteIdentityVIPSuite is the fixture half of the dense-vs-
// planned property: the full VIP suite, byte for byte, plus a peak-live
// sanity check on every workload.
func TestPlanByteIdentityVIPSuite(t *testing.T) {
	for _, w := range workloads.VIPSuiteSmall() {
		c := w.Build()
		g, e := w.Inputs(17)
		checkPlanByteIdentity(t, w.Name, c, g, e, 0xfeedface)

		p := mustPlan(t, c)
		if p.NumSlots >= c.NumWires() {
			t.Errorf("%s: renaming did not compact (%d slots for %d wires)", w.Name, p.NumSlots, c.NumWires())
		}
	}
}

// TestPlanByteIdentityRandomCircuits is the randomized half: mixed
// AND/XOR/INV circuits with constants and shared fan-out, dense vs
// planned, byte for byte.
func TestPlanByteIdentityRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		c := circuit.RandomCircuit(rng)
		g := make([]bool, c.GarblerInputs)
		e := make([]bool, c.EvaluatorInputs)
		for i := range g {
			g[i] = rng.Intn(2) == 1
		}
		for i := range e {
			e[i] = rng.Intn(2) == 1
		}
		checkPlanByteIdentity(t, "random", c, g, e, uint64(trial)*2654435761+1)
	}
}

// TestPlanRunnerReuse exercises the steady-state path: one PlanGarbler /
// PlanEvaluator pair reused across runs with different seeds and inputs
// stays byte-identical to the dense engines on every run.
func TestPlanRunnerReuse(t *testing.T) {
	w := workloads.DotProduct(4, 16)
	c := w.Build()
	h := RekeyedHasher{}
	p := mustPlan(t, c)
	pg := NewPlanGarbler(p, h)
	pe := NewPlanEvaluator(p, h)

	for run := 0; run < 5; run++ {
		seed := uint64(1000 + run)
		g, e := w.Inputs(int64(run))

		want, err := Garble(c, h, label.NewSource(seed))
		if err != nil {
			t.Fatal(err)
		}
		pg.Begin(label.NewSource(seed))
		got, err := pg.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := equalGarbled(want, got); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}

		in, err := want.EncodeInputs(c, g, e)
		if err != nil {
			t.Fatal(err)
		}
		wantOut, err := Evaluate(c, h, in, want.Tables)
		if err != nil {
			t.Fatal(err)
		}
		gotOut, err := pe.Eval(in, got.Tables)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantOut {
			if gotOut[i] != wantOut[i] {
				t.Fatalf("run %d: output label %d differs", run, i)
			}
		}
	}
}

// TestPlanGarblerEmitChunks: the plan garbler's emit hook hands out
// contiguous, non-overlapping gate-order chunks, step by step, that
// concatenate to the in-memory tables.
func TestPlanGarblerEmitChunks(t *testing.T) {
	c := workloads.Hamming(128).Build()
	h := RekeyedHasher{}
	p := mustPlan(t, c)
	want, err := Garble(c, h, label.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Material
	chunks := 0
	pg := NewPlanGarbler(p, h)
	pg.Begin(label.NewSource(5))
	got, err := pg.Run(func(tables []Material) error {
		streamed = append(streamed, tables...)
		chunks++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := equalGarbled(want, got); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(want.Tables) {
		t.Fatalf("streamed %d tables, want %d", len(streamed), len(want.Tables))
	}
	for i := range streamed {
		if streamed[i] != want.Tables[i] {
			t.Fatalf("streamed table %d differs", i)
		}
	}
	if chunks < 2 {
		t.Fatalf("expected step-by-step chunking, got %d chunk(s)", chunks)
	}
}

// TestPlanGarblerEmitError checks an emit failure aborts the run.
func TestPlanGarblerEmitError(t *testing.T) {
	p := mustPlan(t, workloads.Hamming(128).Build())
	pg := NewPlanGarbler(p, RekeyedHasher{})
	pg.Begin(label.NewSource(5))
	boom := errors.New("pipe broke")
	if _, err := pg.Run(func([]Material) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("emit error not propagated: %v", err)
	}
}

// TestPlanEvalStreamBlocking drives a plan evaluator through a
// table source that another goroutine releases in small batches — need
// genuinely blocks — the shape a protocol reading tables off a wire has.
func TestPlanEvalStreamBlocking(t *testing.T) {
	w := workloads.Mult32()
	c := w.Build()
	h := RekeyedHasher{}
	g, e := w.Inputs(3)
	want := w.Reference(g, e)
	p := mustPlan(t, c)

	garbled, err := Garble(c, h, label.NewSource(23))
	if err != nil {
		t.Fatal(err)
	}
	in, err := garbled.EncodeInputs(c, g, e)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	released := 0
	go func() {
		for {
			mu.Lock()
			released += 37
			done := released >= len(garbled.Tables)
			if done {
				released = len(garbled.Tables)
			}
			cond.Broadcast()
			mu.Unlock()
			if done {
				return
			}
		}
	}()
	need := func(n int) ([]Material, error) {
		mu.Lock()
		defer mu.Unlock()
		for released < n {
			cond.Wait()
		}
		return garbled.Tables[:released], nil
	}
	pe := NewPlanEvaluator(p, h)
	out, err := pe.EvalStream(in, need)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := garbled.Decode(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bit %d wrong", i)
		}
	}
}

// TestPlanEvalTableCountMismatch mirrors the reference evaluator's
// stream-length errors.
func TestPlanEvalTableCountMismatch(t *testing.T) {
	w := workloads.Millionaire(8)
	c := w.Build()
	h := RekeyedHasher{}
	g, e := w.Inputs(1)
	p := mustPlan(t, c)
	garbled, err := Garble(c, h, label.NewSource(2))
	if err != nil {
		t.Fatal(err)
	}
	in, err := garbled.EncodeInputs(c, g, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvalPlan(p, h, in, garbled.Tables[:len(garbled.Tables)-1]); err == nil {
		t.Fatal("short table stream accepted")
	}
	if _, err := EvalPlan(p, h, in, append(append([]Material{}, garbled.Tables...), Material{})); err == nil {
		t.Fatal("overlong table stream accepted")
	}
	if _, err := pgRunWithoutBegin(p, h); err == nil {
		t.Fatal("Run without Begin accepted")
	}
}

func pgRunWithoutBegin(p *circuit.Plan, h Hasher) (*Garbled, error) {
	return NewPlanGarbler(p, h).Run(nil)
}

// TestPlanSteadyStateZeroAllocs is the acceptance criterion: plan-based
// garble and eval of a precompiled circuit run with zero allocations per
// run once the runners are warm.
func TestPlanSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	w := workloads.DotProduct(4, 16)
	c := w.Build()
	and, _, _ := c.CountOps()
	if and < 500 {
		t.Fatalf("workload too small to detect per-gate allocations (%d ANDs)", and)
	}
	h := RekeyedHasher{}
	p := mustPlan(t, c)

	pg := NewPlanGarbler(p, h)
	src := label.NewSource(7)
	pg.Begin(src)
	garbled, err := pg.Run(nil) // warm pools
	if err != nil {
		t.Fatal(err)
	}
	g, e := w.Inputs(5)
	inputs, err := garbled.EncodeInputs(c, g, e)
	if err != nil {
		t.Fatal(err)
	}
	tables := append([]Material(nil), garbled.Tables...)

	garbleAllocs := testing.AllocsPerRun(20, func() {
		pg.Begin(src)
		if _, err := pg.Run(nil); err != nil {
			t.Fatal(err)
		}
	})
	if garbleAllocs != 0 {
		t.Fatalf("plan garble allocates %.1f times per run in steady state, want 0", garbleAllocs)
	}

	pe := NewPlanEvaluator(p, h)
	if _, err := pe.Eval(inputs, tables); err != nil { // warm
		t.Fatal(err)
	}
	evalAllocs := testing.AllocsPerRun(20, func() {
		if _, err := pe.Eval(inputs, tables); err != nil {
			t.Fatal(err)
		}
	})
	if evalAllocs != 0 {
		t.Fatalf("plan eval allocates %.1f times per run in steady state, want 0", evalAllocs)
	}
}

// TestPlanGarbleDeterminism is the engine's core invariant: the plan
// garbler's output is byte-identical to the reference garbler, across
// circuits, seeds and both hashers.
func TestPlanGarbleDeterminism(t *testing.T) {
	hashers := []Hasher{RekeyedHasher{}, NewFixedKeyHasher([16]byte{9, 9})}
	for _, w := range planCircuits() {
		c := w.Build()
		p := mustPlan(t, c)
		for _, h := range hashers {
			for _, seed := range []uint64{1, 42, 0xfeedface} {
				want, err := Garble(c, h, label.NewSource(seed))
				if err != nil {
					t.Fatal(err)
				}
				got, err := GarblePlan(p, h, label.NewSource(seed))
				if err != nil {
					t.Fatalf("%s/%s/seed=%d: %v", w.Name, h.Name(), seed, err)
				}
				if err := equalGarbled(want, got); err != nil {
					t.Fatalf("%s/%s/seed=%d: %v", w.Name, h.Name(), seed, err)
				}
			}
		}
	}
}

// TestPlanEvalMatchesReference checks the evaluator side: same output
// labels as Evaluate, and correct plaintext after decoding.
func TestPlanEvalMatchesReference(t *testing.T) {
	h := RekeyedHasher{}
	for _, w := range planCircuits() {
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
		planOut, err := EvalPlan(p, h, in, garbled.Tables)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for i := range seqOut {
			if planOut[i] != seqOut[i] {
				t.Fatalf("%s: output label %d differs", w.Name, i)
			}
		}
		bits, err := garbled.Decode(planOut)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for i := range want {
			if bits[i] != want[i] {
				t.Fatalf("%s: plaintext bit %d wrong", w.Name, i)
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

// TestPlanStepTails: a step of n independent AND gates goes whole to the
// step kernel — n = 0..5 covers no gate and the kernel's short steps;
// the sizes from 15 on cover longer ones and the kernels' tails after
// eight or four gates in flight.
func TestPlanStepTails(t *testing.T) {
	h := RekeyedHasher{}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 15, 16, 17, 35} {
		c := &circuit.Circuit{GarblerInputs: 1, EvaluatorInputs: 1}
		for i := 0; i < n; i++ {
			c.Gates = append(c.Gates, circuit.Gate{Op: circuit.AND, A: 0, B: 1})
			c.Outputs = append(c.Outputs, circuit.Wire(2+i))
		}
		// One free gate, so the n = 0 circuit still has a step.
		c.Gates = append(c.Gates, circuit.Gate{Op: circuit.XOR, A: 0, B: 1})
		c.Outputs = append(c.Outputs, circuit.Wire(2+n))
		p := mustPlan(t, c)
		if _, and, _ := p.Step(0); p.NumSteps() != 1 || len(and) != n {
			t.Fatalf("n=%d: want one step of %d AND gates", n, n)
		}
		want, err := Garble(c, h, label.NewSource(9))
		if err != nil {
			t.Fatal(err)
		}
		in, err := want.EncodeInputs(c, []bool{true}, []bool{true})
		if err != nil {
			t.Fatal(err)
		}
		wantOut, err := Evaluate(c, h, in, want.Tables)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GarblePlan(p, h, label.NewSource(9))
		if err != nil {
			t.Fatal(err)
		}
		if err := equalGarbled(want, got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		out, err := EvalPlan(p, h, in, want.Tables)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantOut {
			if out[i] != wantOut[i] {
				t.Fatalf("n=%d: output label %d differs from the reference", n, i)
			}
		}
	}
}
