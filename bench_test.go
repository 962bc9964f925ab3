// Root benchmark harness: one Go benchmark per table and figure of the
// paper's evaluation (§6). Each benchmark regenerates its artifact via
// internal/bench and reports headline metrics; the formatted tables are
// printed with -v.
//
// By default benchmarks run at the reduced ("small") workload scale so
// `go test -bench=.` completes quickly. Set HAAC_BENCH_SCALE=paper to
// run the §5 evaluation sizes (cmd/haacbench does this by default).
package haac

import (
	"fmt"
	"net"
	"os"
	"testing"

	"haac/internal/bench"
	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
	"haac/internal/ot"
	"haac/internal/proto"
	"haac/internal/workloads"
)

func benchEnv(b *testing.B) *bench.Env {
	b.Helper()
	scale := bench.Small
	if s := os.Getenv("HAAC_BENCH_SCALE"); s != "" {
		var err error
		scale, err = bench.ParseScale(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	return bench.NewEnv(scale)
}

func BenchmarkTable1PPCComparison(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = bench.Table1()
	}
	b.Log("\n" + s)
}

func BenchmarkTable2Characteristics(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, s, err := e.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s)
			var gates float64
			for _, r := range rows {
				gates += r.GatesK
			}
			b.ReportMetric(gates, "kgates-total")
		}
	}
}

func BenchmarkTable3WireTraffic(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		_, s, err := e.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s)
		}
	}
}

func BenchmarkTable4AreaPower(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		s, err := e.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s)
		}
	}
}

func BenchmarkTable5PriorWork(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, s, err := e.Table5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s)
			wins := 0
			for _, r := range rows {
				if r.Speedup > 1 {
					wins++
				}
			}
			b.ReportMetric(float64(wins)/float64(len(rows)), "win-fraction")
		}
	}
}

func BenchmarkFig6CompilerSpeedups(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, s, err := e.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s)
			gain := 0.0
			for _, r := range rows {
				gain += r.ESW / r.Baseline
			}
			b.ReportMetric(gain/float64(len(rows)), "avg-opt-gain-x")
		}
	}
}

func BenchmarkFig7OrderingSWWSweep(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		_, s, err := e.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s)
		}
	}
}

func BenchmarkFig8GEScaling(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, s, err := e.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s)
			var scale float64
			for _, r := range rows {
				scale += r.HBM2[len(r.HBM2)-1] / r.HBM2[0]
			}
			b.ReportMetric(scale/float64(len(rows)), "avg-1to16-scaling-x")
		}
	}
}

func BenchmarkFig9Energy(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, s, err := e.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s)
			var eff float64
			for _, r := range rows {
				eff += r.EfficiencyKx
			}
			b.ReportMetric(eff/float64(len(rows)), "avg-efficiency-Kx")
		}
	}
}

func BenchmarkFig10PlaintextSlowdown(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		_, s, err := e.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s)
		}
	}
}

func BenchmarkGarblerVsEvaluator(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		ratio, s, err := e.GarblerVsEvaluator()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s)
			b.ReportMetric(ratio, "garbler/evaluator")
		}
	}
}

// BenchmarkRekeyingOverhead regenerates the "rekey" experiment: the
// re-keyed vs fixed-key garbling cost on matched AES backends, T-table
// and live tier (the reported metric; paper-comparable on an AES-NI
// host). The per-gate
// hashing benchmarks behind it live in internal/gc
// (BenchmarkRekeyedHash4, BenchmarkRekeyedGarble, ...) and report B/op
// and allocs/op directly.
func BenchmarkRekeyingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, over, s := bench.RekeyingOverhead()
		if i == 0 {
			b.Log("\n" + s)
			b.ReportMetric(over, "rekey-overhead-%")
			for _, r := range rows {
				if r.Hasher == "rekeyed" {
					b.ReportMetric(r.AllocsPerHash4, "allocs/hash4")
				}
			}
		}
	}
}

// benchParallelCircuit is the large, wide circuit the sequential-vs-
// parallel garbling benchmarks share (ILP ~267, ~96 ANDs per level).
func benchParallelCircuit(b *testing.B) *Circuit {
	b.Helper()
	return workloads.MatMult(3, 16).Build()
}

// BenchmarkGarble compares the reference garbler against the plan
// engine at several pool widths on the same circuit. On a multi-core
// host the x8 variant is expected to run >= 2x faster than the
// reference; on a single-core host they converge (the engine adds only
// a few percent of scheduling overhead).
func BenchmarkGarble(b *testing.B) {
	c := benchParallelCircuit(b)
	h := gc.RekeyedHasher{}
	and, _, _ := c.CountOps()
	p, err := circuit.NewPlan(c)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gc.Garble(c, h, label.NewSource(7)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(and)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MAND/s")
	})
	for _, workers := range []int{2, 4, 8} {
		workers := workers
		b.Run(benchName("plan", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gc.GarblePlan(p, h, label.NewSource(7), workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(and)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MAND/s")
		})
	}
}

// BenchmarkParallelEval is the evaluator-side counterpart.
func BenchmarkParallelEval(b *testing.B) {
	c := benchParallelCircuit(b)
	h := gc.RekeyedHasher{}
	p, err := circuit.NewPlan(c)
	if err != nil {
		b.Fatal(err)
	}
	w := workloads.MatMult(3, 16)
	g, e := w.Inputs(5)
	garbled, err := gc.Garble(c, h, label.NewSource(7))
	if err != nil {
		b.Fatal(err)
	}
	in, err := garbled.EncodeInputs(c, g, e)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		workers := workers
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gc.EvalPlan(p, h, in, garbled.Tables, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelGarblingTable regenerates the reference-vs-plan-engine
// throughput table (cmd/haacbench experiment "parallel").
func BenchmarkParallelGarblingTable(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, s, err := e.ParallelGarbling()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s)
			var best float64
			for _, r := range rows {
				if sp := r.Speedup(8); sp > best {
					best = sp
				}
			}
			b.ReportMetric(best, "best-x8-speedup")
		}
	}
}

func benchName(prefix string, workers int) string {
	return fmt.Sprintf("%s-x%d", prefix, workers)
}

// BenchmarkGarblePlan compares the dense reference garbler against a
// reused plan runner on the same circuit. ReportAllocs makes the
// headline property visible: the planned steady state is 0 allocs/op
// while the reference re-allocates its wire arrays every run.
func BenchmarkGarblePlan(b *testing.B) {
	c := benchParallelCircuit(b)
	h := gc.RekeyedHasher{}
	and, _, _ := c.CountOps()
	p, err := circuit.NewPlan(c)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gc.Garble(c, h, label.NewSource(7)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(and)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MAND/s")
	})
	b.Run("planned", func(b *testing.B) {
		pg := gc.NewPlanGarbler(p, h, 1)
		src := label.NewSource(7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pg.Begin(src)
			if _, err := pg.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(and)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MAND/s")
	})
}

// BenchmarkEvalPlan is the evaluator-side counterpart.
func BenchmarkEvalPlan(b *testing.B) {
	w := workloads.MatMult(3, 16)
	c := w.Build()
	h := gc.RekeyedHasher{}
	g, e := w.Inputs(5)
	p, err := circuit.NewPlan(c)
	if err != nil {
		b.Fatal(err)
	}
	garbled, err := gc.Garble(c, h, label.NewSource(7))
	if err != nil {
		b.Fatal(err)
	}
	in, err := garbled.EncodeInputs(c, g, e)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gc.Evaluate(c, h, in, garbled.Tables); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("planned", func(b *testing.B) {
		pe := gc.NewPlanEvaluator(p, h, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pe.Eval(in, garbled.Tables); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPrecompile prices the one-time plan construction that the
// planned runs above amortize: liveness + renaming + schedule, O(gates).
func BenchmarkPrecompile(b *testing.B) {
	c := benchParallelCircuit(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Precompile(c); err != nil {
			b.Fatal(err)
		}
	}
}

// Benchmark2PCPlanned compares full two-party runs that compile a plan
// per call against runs sharing a precompiled one, at two engine widths.
func Benchmark2PCPlanned(b *testing.B) {
	w := workloads.MatMult(3, 16)
	c := w.Build()
	g, e := w.Inputs(5)
	p, err := Precompile(c)
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name string
		opts RunOptions
	}{
		{"compile-per-run", RunOptions{}},
		{"planned", RunOptions{Plan: p}},
		{"planned-x8", RunOptions{Plan: p, Workers: 8}},
	}
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run2PCWith(c, g, e, m.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMemoryTable regenerates the dense-vs-planned memory table
// (cmd/haacbench experiment "memory").
func BenchmarkMemoryTable(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, s, err := e.Memory()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s)
			worst := 0.0
			for _, r := range rows {
				if f := r.LiveFraction(); f > worst {
					worst = f
				}
			}
			b.ReportMetric(worst, "worst-live-fraction")
		}
	}
}

// BenchmarkOTExtension: one op is a full IKNP extension of m transfers,
// 128 DH base OTs included, both parties over an in-memory pipe. B/op
// and allocs/op come from ReportAllocs: allocations are O(1) per 16384-
// transfer chunk, so allocs/op stays flat while m (and OT/s) grows.
func BenchmarkOTExtension(b *testing.B) {
	for _, m := range []int{1024, 16384, 65536} {
		m := m
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			src := label.NewSource(uint64(m))
			pairs := make([]ot.Pair, m)
			choices := ot.NewBitset(m)
			for i := range pairs {
				pairs[i] = ot.Pair{M0: src.Next(), M1: src.Next()}
				choices.Set(i, i%3 == 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ga, ev := net.Pipe()
				errc := make(chan error, 1)
				go func() { errc <- ot.Send(ga, ot.IKNP, pairs) }()
				if _, err := ot.ReceiveBitset(ev, ot.IKNP, choices); err != nil {
					b.Fatal(err)
				}
				if err := <-errc; err != nil {
					b.Fatal(err)
				}
				ga.Close()
				ev.Close()
			}
			b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "OT/s")
		})
	}
}

// Benchmark2PCTransport isolates the slab transport: full two-party runs
// under the allocation-free fixed-key hasher and free OT, so allocs/op
// tracks the table/label stream rather than hashing or key exchange.
func Benchmark2PCTransport(b *testing.B) {
	w := workloads.DotProduct(8, 16)
	c := w.Build()
	and, _, _ := c.CountOps()
	g, e := w.Inputs(5)
	h := gc.NewFixedKeyHasher([16]byte{42})
	p, err := circuit.NewPlan(c)
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name string
		opts proto.Options
	}{
		{"sequential", proto.Options{OT: ot.Insecure, Seed: 7, Hasher: h, Plan: p}},
		{"plan-x4", proto.Options{OT: ot.Insecure, Seed: 7, Hasher: h, Plan: p, Workers: 4}},
	}
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ga, ev := net.Pipe()
				errc := make(chan error, 1)
				go func() {
					_, err := proto.RunGarbler(ga, c, g, m.opts)
					errc <- err
				}()
				if _, err := proto.RunEvaluator(ev, c, e, m.opts); err != nil {
					b.Fatal(err)
				}
				if err := <-errc; err != nil {
					b.Fatal(err)
				}
				ga.Close()
				ev.Close()
			}
			b.ReportMetric(float64(and)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mtables/s")
		})
	}
}

// BenchmarkOTExtensionTable regenerates the OT-extension experiment
// (cmd/haacbench experiment "ot").
func BenchmarkOTExtensionTable(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, s, err := e.OTExtension()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s)
			last := rows[len(rows)-1]
			b.ReportMetric(last.AllocsPerOT, "allocs/OT-largest")
		}
	}
}

// BenchmarkTransportTable regenerates the 2PC transport experiment
// (cmd/haacbench experiment "transport").
func BenchmarkTransportTable(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, s, err := e.Transport()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s)
			b.ReportMetric(rows[0].AllocsPerTable, "allocs/table-seq")
		}
	}
}

// BenchmarkServingTable regenerates the concurrent serving experiment
// (cmd/haacbench experiment "serving"): sessions share one plan build
// and pooled runners at 1, 4 and 16 concurrent evaluators.
func BenchmarkServingTable(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, s, err := e.Serving()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s)
			last := rows[len(rows)-1]
			b.ReportMetric(last.RunsPerSec, "runs/s-16sess")
			b.ReportMetric(last.AllocsPerRun, "allocs/run-16sess")
		}
	}
}
