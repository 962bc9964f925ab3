package proto

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"

	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
	"haac/internal/ot"
	"haac/internal/workloads"
)

// Allocation-regression suite for the steady-state hot loops. These pin
// the PR's zero-allocation transport property with testing.AllocsPerRun
// instead of wall-clock assertions (single-CPU CI makes timing
// meaningless, allocation counts are exact). Under the race detector
// sync.Pool stops caching, so the counts are only asserted without it.

// skipUnderRace skips allocation-count assertions when the race
// detector inflates them.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

// TestTableStreamNoSteadyStateAllocs: the hand-offs between a run and
// the session's garble goroutine — the run's op, a call per emit, the
// run's writes of the arena's own bytes, the end of its stream, and the
// run garbled ahead meanwhile — allocate nothing, whatever the number
// of tables.
func TestTableStreamNoSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	measure := func(w workloads.Workload) float64 {
		plan, err := circuit.NewPlan(w.Build())
		if err != nil {
			t.Fatal(err)
		}
		tx := newTableStream(plan, gc.RekeyedHasher{}, 7, &Stats{}, false)
		defer tx.close()
		run := func() {
			rn := tx.next()
			tx.begun(rn)
			if _, err := tx.stream(io.Discard, rn, 0); err != nil {
				t.Fatal(err)
			}
		}
		run() // the first run ahead builds the second runner
		return testing.AllocsPerRun(50, run)
	}
	if small, large := measure(workloads.DotProduct(4, 16)), measure(workloads.DotProduct(12, 32)); small > 0 || large > 0 {
		t.Fatalf("table stream allocates in steady state: %.1f (DotProduct(4,16)), %.1f (DotProduct(12,32))", small, large)
	}
}

// TestSendActiveInputsNoSteadyStateAllocs: the input-label block is one
// pooled slab regardless of input width.
func TestSendActiveInputsNoSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	w := bufio.NewWriterSize(io.Discard, 1<<20)
	c := workloads.AddN(64).Build()
	zeros := make([]label.L, c.NumInputs())
	bits := make([]bool, c.GarblerInputs)
	r := label.L{Lo: 1}
	if err := sendActiveInputs(w, c, zeros, r, bits); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if err := sendActiveInputs(w, c, zeros, r, bits); err != nil {
			t.Fatal(err)
		}
		w.Flush()
	}); avg > 0.5 {
		t.Fatalf("sendActiveInputs allocates %.1f times in steady state", avg)
	}
}

// TestGarbleEvalSteadyStateAllocs: with the batched fixed-key hasher the
// whole garble and eval tight loops allocate O(1) per circuit — a
// per-gate allocation on a ~1k-AND circuit would add thousands.
func TestGarbleEvalSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	w := workloads.DotProduct(4, 16)
	c := w.Build()
	and, _, _ := c.CountOps()
	if and < 500 {
		t.Fatalf("workload too small to detect per-gate allocations (%d ANDs)", and)
	}
	h := gc.NewFixedKeyHasher([16]byte{3})

	plan, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	garbled, err := gc.Garble(c, h, label.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	g, e := w.Inputs(5)
	inputs, err := garbled.EncodeInputs(c, g, e)
	if err != nil {
		t.Fatal(err)
	}

	// Garble loop: runner construction allocates (arenas), gates must not.
	garbleAllocs := testing.AllocsPerRun(10, func() {
		if _, err := gc.GarblePlan(plan, h, label.NewSource(7)); err != nil {
			t.Fatal(err)
		}
	})
	if garbleAllocs > 50 {
		t.Fatalf("garble loop allocates %.0f times for %d ANDs (want O(1) per circuit)", garbleAllocs, and)
	}

	evalAllocs := testing.AllocsPerRun(10, func() {
		if _, err := gc.EvalPlan(plan, h, inputs, garbled.Tables); err != nil {
			t.Fatal(err)
		}
	})
	if evalAllocs > 50 {
		t.Fatalf("eval loop allocates %.0f times for %d ANDs (want O(1) per circuit)", evalAllocs, and)
	}
}

// TestRekeyed2PCSteadyStateAllocs: a full one-shot two-party run over a
// shared plan, under the paper's re-keyed hasher, stays O(1) allocations
// per circuit — key schedules live in pooled scratch (a per-hash
// crypto/aes cipher was ~18 allocations per table on this workload) —
// and never rebuilds the plan.
func TestRekeyed2PCSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	w := workloads.DotProduct(4, 16)
	c := w.Build()
	and, _, _ := c.CountOps()
	plan, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	g, e := w.Inputs(5)
	opts := Options{OT: ot.Insecure, Seed: 7, Plan: plan} // default hasher: rekeyed

	run := func() {
		ga, ev := net.Pipe()
		errc := make(chan error, 1)
		go func() {
			_, err := RunGarbler(ga, c, g, opts)
			errc <- err
		}()
		if _, err := RunEvaluator(ev, c, e, opts); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		ga.Close()
		ev.Close()
	}
	run() // warm pools

	builds := circuit.PlanBuilds()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const reps = 5
	for i := 0; i < reps; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if got := circuit.PlanBuilds() - builds; got != 0 {
		t.Fatalf("planned runs rebuilt the plan %d times; reuse must compile zero", got)
	}
	perTable := float64(after.Mallocs-before.Mallocs) / reps / float64(and)
	// Per-run overhead (pipe, goroutine, wire arrays) is O(1); a
	// per-hash allocation regression puts this at >= 2.
	if perTable > 0.5 {
		t.Fatalf("rekeyed 2PC allocates %.2f times per table (%d ANDs; want hashing allocation-free)", perTable, and)
	}
}

// TestEvaluatorSessionReplayAllocs: an EvaluatorSession replaying a
// recorded garbler stream allocates O(1) per run — the batched table
// reader and the plan runner add nothing per table.
func TestEvaluatorSessionReplayAllocs(t *testing.T) {
	skipUnderRace(t)
	w := workloads.DotProduct(4, 16)
	c := w.Build()
	plan, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	g, e := w.Inputs(5)
	opts := Options{OT: ot.Insecure, Seed: 7, Plan: plan, Hasher: gc.NewFixedKeyHasher([16]byte{3})}

	var stream bytes.Buffer
	ga, ev := net.Pipe()
	defer ga.Close()
	defer ev.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := RunGarbler(teeConn{ga, &stream}, c, g, opts)
		errc <- err
	}()
	es, err := NewEvaluatorSession(ev, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	if _, err := es.Run(e); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	rd := bytes.NewReader(stream.Bytes())
	replay := readWriter{rd, io.Discard}
	avg := testing.AllocsPerRun(10, func() {
		rd.Reset(stream.Bytes())
		es.Reset(replay)
		if _, err := es.Run(e); err != nil {
			t.Fatal(err)
		}
	})
	and, _, _ := c.CountOps()
	if avg > 60 {
		t.Fatalf("replayed eval allocates %.0f times for %d tables (want O(1) per stream)", avg, and)
	}
}
