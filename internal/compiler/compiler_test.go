package compiler

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"haac/internal/circuit"
	"haac/internal/workloads"
)

func smallCfg(mode ReorderMode) Config {
	return Config{
		Reorder:  mode,
		ESW:      true,
		SWWWires: 64,
		NumGEs:   4,
	}
}

// checkWorkload compiles and functionally executes a workload under the
// given config, comparing against the native reference.
func checkWorkload(t *testing.T, w workloads.Workload, cfg Config, seed int64) *Compiled {
	t.Helper()
	c := w.Build()
	cp, err := Compile(c, cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	g, e := w.Inputs(seed)
	want := w.Reference(g, e)
	in, err := cp.InputBits(c, g, e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cp.Execute(in)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", w.Name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s (%v, seed %d): output bit %d mismatch", w.Name, cfg.Reorder, seed, i)
		}
	}
	return cp
}

func TestParseReorderMode(t *testing.T) {
	for _, m := range []ReorderMode{Baseline, FullReorder, SegmentReorder} {
		if got, err := ParseReorderMode(m.String()); err != nil || got != m {
			t.Errorf("ParseReorderMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if got, err := ParseReorderMode("segment"); err != nil || got != SegmentReorder {
		t.Errorf(`ParseReorderMode("segment") = %v, %v`, got, err)
	}
	if _, err := ParseReorderMode("sideways"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestAllPassesPreserveSemantics(t *testing.T) {
	// Every workload x every reorder mode, with a tiny SWW to force OoR
	// traffic and spills through every path.
	for _, w := range workloads.VIPSuiteSmall() {
		for _, mode := range []ReorderMode{Baseline, FullReorder, SegmentReorder} {
			w, mode := w, mode
			t.Run(w.Name+"/"+mode.String(), func(t *testing.T) {
				checkWorkload(t, w, smallCfg(mode), 3)
			})
		}
	}
}

func TestNoESWStillCorrect(t *testing.T) {
	cfg := smallCfg(FullReorder)
	cfg.ESW = false
	cp := checkWorkload(t, workloads.DotProduct(4, 8), cfg, 1)
	if cp.Traffic.LiveWires != len(cp.Program.Instrs) {
		t.Fatal("without ESW all wires must be live")
	}
}

func TestESWReducesLiveWires(t *testing.T) {
	w := workloads.Hamming(256)
	c := w.Build()
	cfg := Config{Reorder: FullReorder, ESW: true, SWWWires: 4096, NumGEs: 4}
	cp, err := Compile(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Traffic.LiveWires >= len(cp.Program.Instrs)/2 {
		t.Fatalf("ESW kept %d/%d wires live; expected most wires spent",
			cp.Traffic.LiveWires, len(cp.Program.Instrs))
	}
	if cp.Traffic.SpentPercent() < 50 {
		t.Fatalf("spent%% = %.1f", cp.Traffic.SpentPercent())
	}
}

func TestLargeSWWHasNoOoR(t *testing.T) {
	// If the SWW covers the whole program there can be no OoR reads and
	// only program outputs are live.
	w := workloads.DotProduct(4, 8)
	c := w.Build()
	cfg := Config{Reorder: FullReorder, ESW: true, SWWWires: 1 << 20, NumGEs: 2}
	cp, err := Compile(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Traffic.OoRWires != 0 {
		t.Fatalf("OoR reads with whole-program SWW: %d", cp.Traffic.OoRWires)
	}
	if cp.Traffic.LiveWires != len(c.Outputs) {
		t.Fatalf("live wires %d, want %d (outputs only)", cp.Traffic.LiveWires, len(c.Outputs))
	}
}

func TestWindowLo(t *testing.T) {
	n := 64
	cases := []struct{ f, lo uint32 }{
		{0, 0}, {32, 0}, {63, 0},
		{64, 32}, {95, 32},
		{96, 64}, {127, 64},
		{128, 96},
	}
	for _, cse := range cases {
		if got := WindowLo(cse.f, n); got != cse.lo {
			t.Errorf("WindowLo(%d,%d) = %d, want %d", cse.f, n, got, cse.lo)
		}
	}
	// Invariants: lo <= f, window covers f, lo advances monotonically in
	// half-window steps.
	f := func(v uint32) bool {
		v %= 1 << 20
		lo := WindowLo(v, n)
		return lo <= v && v < lo+uint32(n) && lo%uint32(n/2) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReorderLevelOrder(t *testing.T) {
	// After full reorder, instruction dependence levels must be
	// non-decreasing along the program.
	w := workloads.DotProduct(4, 8)
	c := w.Build()
	cp, err := Compile(c, Config{Reorder: FullReorder, ESW: true, SWWWires: 1 << 20, NumGEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := &cp.Program
	lvl := make(map[uint32]int) // addr -> level
	prev := 0
	for j := range p.Instrs {
		in := p.Instrs[j]
		l := 0
		if la, ok := lvl[in.A]; ok && la > l {
			l = la
		}
		if lb, ok := lvl[in.B]; ok && lb > l {
			l = lb
		}
		l++
		lvl[p.OutAddr(j)] = l
		if l < prev {
			t.Fatalf("instruction %d at level %d after level %d", j, l, prev)
		}
		prev = l
	}
}

func TestPartitionConservation(t *testing.T) {
	w := workloads.MatMult(3, 8)
	c := w.Build()
	cfg := smallCfg(SegmentReorder)
	cp, err := Compile(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each GE's instruction count is the number of instructions GEOf
	// maps to it, and every instruction is on a GE that exists.
	if len(cp.GEOf) != len(cp.Program.Instrs) {
		t.Fatalf("GEOf covers %d instructions, program has %d", len(cp.GEOf), len(cp.Program.Instrs))
	}
	counts := make([]int, cfg.NumGEs)
	for j, g := range cp.GEOf {
		if int(g) >= cfg.NumGEs {
			t.Fatalf("instruction %d on GE %d of %d", j, g, cfg.NumGEs)
		}
		counts[g]++
	}
	if !slices.Equal(cp.InstrsPerGE, counts) {
		t.Fatalf("InstrsPerGE %v, GEOf counts %v", cp.InstrsPerGE, counts)
	}
	// Table queue depths must sum to the AND count.
	ands := cp.Program.NumANDs()
	sum := 0
	for _, n := range cp.TablesPerGE {
		sum += n
	}
	if sum != ands {
		t.Fatalf("table queues hold %d, program has %d ANDs", sum, ands)
	}
}

func TestSegmentVsFullTrafficTradeoff(t *testing.T) {
	// The paper's Table 3: for a high-ILP workload, full reorder must
	// generate at least as much wire traffic as segment reorder.
	w := workloads.MatMult(4, 16)
	c := w.Build()
	base := Config{ESW: true, SWWWires: 2048, NumGEs: 4}

	cfgSeg := base
	cfgSeg.Reorder = SegmentReorder
	seg, err := Compile(c, cfgSeg)
	if err != nil {
		t.Fatal(err)
	}
	cfgFull := base
	cfgFull.Reorder = FullReorder
	full, err := Compile(c.Clone(), cfgFull)
	if err != nil {
		t.Fatal(err)
	}
	if full.Traffic.Total() < seg.Traffic.Total() {
		t.Fatalf("full reorder traffic %d < segment %d; tradeoff inverted",
			full.Traffic.Total(), seg.Traffic.Total())
	}
}

func TestRandomCircuitsAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(rng, 6, 6, 200)
		g := randBits(rng, 6)
		e := randBits(rng, 6)
		want, err := c.Eval(g, e)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []ReorderMode{Baseline, FullReorder, SegmentReorder} {
			cp, err := Compile(c.Clone(), smallCfg(mode))
			if err != nil {
				t.Fatal(err)
			}
			in, err := cp.InputBits(c, g, e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cp.Execute(in)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, mode, err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d %v: output %d mismatch", trial, mode, i)
				}
			}
		}
	}
}

func TestInvalidConfigsRejected(t *testing.T) {
	c := workloads.AddN(4).Build()
	if _, err := Compile(c, Config{SWWWires: 2, NumGEs: 1, Reorder: Baseline}); err == nil {
		t.Fatal("tiny SWW accepted")
	}
	if _, err := Compile(c, Config{SWWWires: 64, NumGEs: 0, Reorder: Baseline}); err == nil {
		t.Fatal("zero GEs accepted")
	}
	if _, err := Compile(c, Config{SWWWires: 64, NumGEs: 1, Reorder: ReorderMode(9)}); err == nil {
		t.Fatal("unknown reorder mode accepted")
	}
	// GEOf holds a GE index in one byte.
	if _, err := Compile(c, Config{SWWWires: 64, NumGEs: MaxGEs + 1, Reorder: Baseline}); err == nil {
		t.Fatal("more than MaxGEs GEs accepted")
	}
}

func TestUnknownOpRejected(t *testing.T) {
	// Validate rejects the op, so Compile never lowers it into a program
	// that reads an unwritten wire.
	c := &circuit.Circuit{
		GarblerInputs: 1, EvaluatorInputs: 1,
		Gates: []circuit.Gate{
			{Op: circuit.INV + 1, A: 0, B: 1},
			{Op: circuit.AND, A: 0, B: 1},
		},
		Outputs: []circuit.Wire{3},
	}
	for _, mode := range []ReorderMode{Baseline, FullReorder, SegmentReorder} {
		if cp, err := Compile(c, smallCfg(mode)); err == nil {
			t.Fatalf("%v: compiled an unknown op into %d instructions", mode, len(cp.Program.Instrs))
		}
	}
}

func TestINVOperandBIgnored(t *testing.T) {
	// RandomCircuit gives INV gates a random, written B wire; the builder
	// always emits B = 0. Every pass must read INV as XOR with the
	// constant-one wire, so rewriting B changes nothing.
	rng := rand.New(rand.NewSource(34))
	segWires := smallCfg(SegmentReorder)
	segWires.SegmentWires = 7
	cfgs := []Config{smallCfg(Baseline), smallCfg(FullReorder), smallCfg(SegmentReorder), segWires}
	consts := map[bool]bool{} // HasConst values seen
	for trial := 0; trial < 200; trial++ {
		c := circuit.RandomCircuit(rng)
		consts[c.HasConst] = true
		z := c.Clone()
		for i := range z.Gates {
			if z.Gates[i].Op == circuit.INV {
				z.Gates[i].B = 0
			}
		}
		for _, cfg := range cfgs {
			p, err := Compile(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			q, err := Compile(z, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p.Program, q.Program) || !slices.Equal(p.GEOf, q.GEOf) || !reflect.DeepEqual(p.OoRW, q.OoRW) {
				t.Fatalf("trial %d, %v: the program depends on INV's B operand", trial, cfg.Reorder)
			}
		}
	}
	if len(consts) != 2 {
		t.Fatal("the trials did not cover circuits with and without constant wires")
	}
}

func TestMaxGEsProgramExecutes(t *testing.T) {
	// At MaxGEs every GE index still fits GEOf, so the OoRW queues the
	// replay pops are the ones fillOoRW filled.
	cfg := Config{Reorder: FullReorder, ESW: true, SWWWires: 64, NumGEs: MaxGEs}
	cp := checkWorkload(t, workloads.Hamming(4096), cfg, 5)
	used := 0
	for _, q := range cp.OoRW {
		if len(q) > 0 {
			used++
		}
	}
	if used <= MaxGEs/2 {
		t.Fatalf("only %d of %d GEs have OoRW entries; the test should reach the high GE indices", used, MaxGEs)
	}
}

func TestGEMinSetMatchesFirstMinimumScan(t *testing.T) {
	// The scheduler's pick must be exactly "the lowest-index GE with the
	// least free time". Each step issues on the picked GE at its free
	// time or after a stall: mostly none, sometimes a short one, and now
	// and then a long one that pushes that GE far ahead of the rest.
	rng := rand.New(rand.NewSource(30))
	for _, nge := range []int{1, 2, 3, 16, 63, 64, 65, MaxGEs} {
		m := newGEMinSet(nge)
		free := make([]int64, nge)
		for step := 0; step < 50*nge+2000; step++ {
			want := 0
			for g := 1; g < nge; g++ {
				if free[g] < free[want] {
					want = g
				}
			}
			if g := m.pick(); g != want || m.min != free[want] {
				t.Fatalf("%d GEs, step %d: picked GE %d at min %d, want GE %d at %d",
					nge, step, g, m.min, want, free[want])
			}
			at := free[want]
			switch r := rng.Intn(100); {
			case r < 10:
				at += 1 + rng.Int63n(40)
			case r < 12:
				at += 1000 + rng.Int63n(100000)
			}
			free[want] = at + 1
			m.take(want, at+1)
		}
	}
}

// randomCircuit mirrors the gc package's generator.
func randomCircuit(rng *rand.Rand, ng, ne, gates int) *circuit.Circuit {
	c := &circuit.Circuit{
		GarblerInputs:   ng,
		EvaluatorInputs: ne,
	}
	for i := 0; i < gates; i++ {
		out := circuit.Wire(ng + ne + i)
		a := circuit.Wire(rng.Intn(int(out)))
		b := circuit.Wire(rng.Intn(int(out)))
		op := []circuit.Op{circuit.XOR, circuit.AND, circuit.INV}[rng.Intn(3)]
		c.Gates = append(c.Gates, circuit.Gate{Op: op, A: a, B: b})
	}
	for i := 0; i < 4; i++ {
		c.Outputs = append(c.Outputs, circuit.Wire(c.NumWires()-1-i))
	}
	return c
}

func randBits(rng *rand.Rand, n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = rng.Intn(2) == 1
	}
	return b
}

func TestAnalyzeReuse(t *testing.T) {
	w := workloads.MatMult(4, 16)
	c := w.Build()
	cp, err := Compile(c, Config{Reorder: SegmentReorder, ESW: true, SWWWires: 1024, NumGEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := cp.AnalyzeReuse([]int{64, 1024, 1 << 20})
	if st.Reads == 0 {
		t.Fatal("no reads analyzed")
	}
	if st.Median > st.P90 || st.P90 > st.P99 || st.P99 > st.Max {
		t.Fatalf("percentiles not monotone: %+v", st)
	}
	// Coverage must be monotone in window size and complete for a
	// window covering the whole program.
	if st.CoveredBy[64] > st.CoveredBy[1024] || st.CoveredBy[1024] > st.CoveredBy[1<<20] {
		t.Fatalf("coverage not monotone: %v", st.CoveredBy)
	}
	if st.CoveredBy[1<<20] < 0.999 {
		t.Fatalf("whole-program window covers only %.3f", st.CoveredBy[1<<20])
	}
	// The paper's locality claim ("most generated wires are used by
	// instructions that closely follow"): the median distance must be
	// tiny relative to the program, and a 1024-wire window must keep the
	// majority of the 48k-instruction program's reads resident.
	if st.Median > 1024 {
		t.Fatalf("median reuse distance %d; locality claim broken", st.Median)
	}
	if st.CoveredBy[1024] < 0.7 {
		t.Fatalf("segment schedule locality too weak: %v\n%s", st.CoveredBy, st)
	}
	if st.String() == "" {
		t.Fatal("empty rendering")
	}
}

func BenchmarkCompile(b *testing.B) {
	// The full suite's MatMult(8, 32), about 1.6M instructions, at the
	// paper's design point.
	c := workloads.MatMult(8, 32).Build()
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		cp, err := Compile(c, cfg)
		if err != nil {
			b.Fatal(err)
		}
		n = len(cp.Program.Instrs)
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}
