package gc

import (
	"errors"
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

// checkPlanByteIdentity asserts the full reference-vs-planned contract
// on one circuit: identical Garbled (R, input zeros, tables, output
// zeros), identical output labels from evaluation, identical decoded
// bits — at plan worker counts 1, 2 and 4.
func checkPlanByteIdentity(t *testing.T, name string, c *circuit.Circuit, garbler, evaluator []bool, seed uint64) {
	t.Helper()
	h := RekeyedHasher{}
	p := mustPlan(t, c)

	want, err := Garble(c, h, label.NewSource(seed))
	if err != nil {
		t.Fatalf("%s: dense garble: %v", name, err)
	}
	var got *Garbled
	for _, workers := range []int{4, 2, 1} {
		got, err = GarblePlan(p, h, label.NewSource(seed), workers)
		if err != nil {
			t.Fatalf("%s/w=%d: plan garble: %v", name, workers, err)
		}
		if err := equalGarbled(want, got); err != nil {
			t.Fatalf("%s/w=%d: plan garble differs from dense: %v", name, workers, err)
		}
	}

	in, err := want.EncodeInputs(c, garbler, evaluator)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	seqOut, err := Evaluate(c, h, in, want.Tables)
	if err != nil {
		t.Fatalf("%s: dense eval: %v", name, err)
	}
	var planOut []label.L
	for _, workers := range []int{4, 2, 1} {
		planOut, err = EvalPlan(p, h, in, want.Tables, workers)
		if err != nil {
			t.Fatalf("%s/w=%d: plan eval: %v", name, workers, err)
		}
		if len(planOut) != len(seqOut) {
			t.Fatalf("%s/w=%d: plan eval returned %d labels, want %d", name, workers, len(planOut), len(seqOut))
		}
		for i := range seqOut {
			if planOut[i] != seqOut[i] {
				t.Fatalf("%s/w=%d: output label %d differs between dense and planned eval", name, workers, i)
			}
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
		if p.NumSlots >= c.NumWires {
			t.Errorf("%s: renaming did not compact (%d slots for %d wires)", w.Name, p.NumSlots, c.NumWires)
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
	pg := NewPlanGarbler(p, h, 1)
	pe := NewPlanEvaluator(p, h, 1)

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
	pg := NewPlanGarbler(p, h, 4)
	defer pg.Close()
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
	pg := NewPlanGarbler(p, RekeyedHasher{}, 2)
	defer pg.Close()
	pg.Begin(label.NewSource(5))
	boom := errors.New("pipe broke")
	if _, err := pg.Run(func([]Material) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("emit error not propagated: %v", err)
	}
}

// TestPlanEvalStreamBlocking drives a 4-worker plan evaluator through a
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
	pe := NewPlanEvaluator(p, h, 4)
	defer pe.Close()
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
	if _, err := EvalPlan(p, h, in, garbled.Tables[:len(garbled.Tables)-1], 2); err == nil {
		t.Fatal("short table stream accepted")
	}
	if _, err := EvalPlan(p, h, in, append(append([]Material{}, garbled.Tables...), Material{}), 2); err == nil {
		t.Fatal("overlong table stream accepted")
	}
	if _, err := pgRunWithoutBegin(p, h); err == nil {
		t.Fatal("Run without Begin accepted")
	}
}

func pgRunWithoutBegin(p *circuit.Plan, h Hasher) (*Garbled, error) {
	return NewPlanGarbler(p, h, 1).Run(nil)
}

// TestPlanSteadyStateZeroAllocs is the acceptance criterion: plan-based
// sequential garble and eval of a precompiled circuit run with zero
// allocations per run once the runners and pools are warm.
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

	pg := NewPlanGarbler(p, h, 1)
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

	pe := NewPlanEvaluator(p, h, 1)
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
