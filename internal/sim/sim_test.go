package sim

import (
	"strings"
	"testing"
	"unsafe"

	"haac/internal/compiler"
	"haac/internal/workloads"
)

func compileFor(t *testing.T, w workloads.Workload, cfg compiler.Config) *compiler.Compiled {
	t.Helper()
	cp, err := compiler.Compile(w.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// smallCfg is a target of nge GEs and a 1024-wire SWW, with ESW.
func smallCfg(nge int, mode compiler.ReorderMode) compiler.Config {
	return compiler.Config{Reorder: mode, ESW: true, SWWWires: 1024, NumGEs: nge}
}

func TestSimulateBasicInvariants(t *testing.T) {
	hw := DefaultHW()
	cp := compileFor(t, workloads.MatMult(3, 16), smallCfg(4, compiler.FullReorder))
	r, err := Simulate(cp, hw)
	if err != nil {
		t.Fatal(err)
	}
	nInstr := int64(len(cp.Program.Instrs))
	if r.Events.ANDs+r.Events.XORs != nInstr {
		t.Fatalf("event counts %d+%d != %d instructions", r.Events.ANDs, r.Events.XORs, nInstr)
	}
	if r.Events.ANDs != int64(cp.Program.NumANDs()) {
		t.Fatal("AND count mismatch")
	}
	if r.Events.OoRReads != int64(cp.Traffic.OoRWires) {
		t.Fatalf("simulator consumed %d OoR reads, compiler produced %d",
			r.Events.OoRReads, cp.Traffic.OoRWires)
	}
	// With 4 GEs, at least nInstr/4 cycles are needed.
	if r.ComputeCycles < nInstr/int64(cp.Cfg.NumGEs) {
		t.Fatalf("compute cycles %d below issue bound %d", r.ComputeCycles, nInstr/4)
	}
	if r.TotalCycles < r.ComputeCycles || r.TotalCycles < r.TrafficCycles {
		t.Fatal("total cycles below component bounds")
	}
	if r.Time() <= 0 {
		t.Fatal("non-positive time")
	}
}

func TestMoreGEsNotSlower(t *testing.T) {
	// Performance must scale (weakly) with GE count for an ILP-rich
	// workload — the Fig. 8 property.
	w := workloads.Hamming(2048)
	var prev int64 = 1 << 62
	for _, nge := range []int{1, 2, 4, 8} {
		cfg := compiler.DefaultConfig()
		cfg.NumGEs = nge
		r, err := Simulate(compileFor(t, w, cfg), DefaultHW())
		if err != nil {
			t.Fatal(err)
		}
		if r.ComputeCycles > prev {
			t.Fatalf("compute cycles grew from %d to %d at %d GEs", prev, r.ComputeCycles, nge)
		}
		prev = r.ComputeCycles
	}
}

func TestReorderImprovesDeepCircuit(t *testing.T) {
	// A multiplier chain has long dependence chains; level-ordering must
	// reduce stalls relative to the depth-first baseline on multiple GEs.
	w := workloads.DotProduct(16, 16)
	hw := DefaultHW()
	base, err := Simulate(compileFor(t, w, smallCfg(8, compiler.Baseline)), hw)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Simulate(compileFor(t, w, smallCfg(8, compiler.FullReorder)), hw)
	if err != nil {
		t.Fatal(err)
	}
	if full.ComputeCycles >= base.ComputeCycles {
		t.Fatalf("full reorder (%d cycles) not faster than baseline (%d)",
			full.ComputeCycles, base.ComputeCycles)
	}
}

func TestForwardingHelps(t *testing.T) {
	w := workloads.DotProduct(4, 16)
	hw := DefaultHW()
	cp := compileFor(t, w, smallCfg(2, compiler.Baseline))
	withFwd, err := Simulate(cp, hw)
	if err != nil {
		t.Fatal(err)
	}
	hw2 := hw
	hw2.Forwarding = false
	noFwd, err := Simulate(cp, hw2)
	if err != nil {
		t.Fatal(err)
	}
	if noFwd.ComputeCycles <= withFwd.ComputeCycles {
		t.Fatalf("disabling forwarding did not slow execution (%d vs %d)",
			noFwd.ComputeCycles, withFwd.ComputeCycles)
	}
}

func TestGarblerSlightlySlower(t *testing.T) {
	// §6.1: the Garbler pipeline is deeper (21 vs 18), so on a
	// dependence-limited workload it is slightly slower.
	w := workloads.GradDesc(2, 2)
	cfg := smallCfg(4, compiler.FullReorder)
	evalRes, err := Simulate(compileFor(t, w, cfg), DefaultHW())
	if err != nil {
		t.Fatal(err)
	}
	cfg.GarblerPipeline = true
	garbRes, err := Simulate(compileFor(t, w, cfg), DefaultHW())
	if err != nil {
		t.Fatal(err)
	}
	if garbRes.ComputeCycles < evalRes.ComputeCycles {
		t.Fatalf("garbler (%d) faster than evaluator (%d)", garbRes.ComputeCycles, evalRes.ComputeCycles)
	}
	ratio := float64(garbRes.ComputeCycles) / float64(evalRes.ComputeCycles)
	if ratio > 1.25 {
		t.Fatalf("garbler/evaluator ratio %.2f implausibly large", ratio)
	}
}

func TestHBM2ReducesTrafficBound(t *testing.T) {
	w := workloads.Hamming(4096)
	hw := DefaultHW()
	cp := compileFor(t, w, smallCfg(8, compiler.FullReorder))
	ddr, err := Simulate(cp, hw)
	if err != nil {
		t.Fatal(err)
	}
	hw2 := hw
	hw2.DRAM = HBM2
	hbm, err := Simulate(cp, hw2)
	if err != nil {
		t.Fatal(err)
	}
	if hbm.TrafficCycles >= ddr.TrafficCycles {
		t.Fatal("HBM2 did not reduce traffic cycles")
	}
	if hbm.ComputeCycles != ddr.ComputeCycles {
		t.Fatal("DRAM choice changed compute cycles (decoupling broken)")
	}
}

func TestTrafficAccounting(t *testing.T) {
	hw := DefaultHW()
	cp := compileFor(t, workloads.AddN(16), smallCfg(2, compiler.Baseline))
	r, err := Simulate(cp, hw)
	if err != nil {
		t.Fatal(err)
	}
	p := &cp.Program
	if r.Traffic.InstrBytes != int64(len(p.Instrs))*8 {
		t.Fatal("instruction bytes wrong")
	}
	if r.Traffic.TableBytes != int64(p.NumANDs())*32 {
		t.Fatal("table bytes wrong")
	}
	if r.Traffic.LiveBytes != int64(p.LiveCount())*16 {
		t.Fatal("live bytes wrong")
	}
	if r.Traffic.TotalBytes() != r.Traffic.InstrBytes+r.Traffic.TableBytes+
		r.Traffic.OoRBytes+r.Traffic.LiveBytes+r.Traffic.InputBytes {
		t.Fatal("total bytes inconsistent")
	}
}

func TestInvalidHWRejected(t *testing.T) {
	cp := compileFor(t, workloads.AddN(8), smallCfg(4, compiler.Baseline))
	neg := DefaultHW()
	neg.OoRPull, neg.DRAMLatencyCycles = true, -1
	for name, hw := range map[string]HW{"zero": {}, "negative DRAMLatencyCycles": neg} {
		if _, err := Simulate(cp, hw); err == nil {
			t.Errorf("Simulate accepted %s HW", name)
		}
		if _, _, err := SimulateTraced(cp, hw, 4); err == nil {
			t.Errorf("SimulateTraced accepted %s HW", name)
		}
		if _, err := SimulateMultiCore([]*compiler.Compiled{cp}, hw, 2); err == nil {
			t.Errorf("SimulateMultiCore accepted %s HW", name)
		}
		if _, err := SimulateCoupled(cp, hw, DefaultQueues()); err == nil {
			t.Errorf("SimulateCoupled accepted %s HW", name)
		}
	}
}

// TestReplaysReadProgramTarget: every entry point runs a program on the
// GE count and AND pipeline it was compiled for.
func TestReplaysReadProgramTarget(t *testing.T) {
	for _, garbler := range []bool{false, true} {
		cfg := smallCfg(4, compiler.FullReorder)
		cfg.GarblerPipeline = garbler
		cp := compileFor(t, workloads.AddN(8), cfg)
		hw := DefaultHW()
		r, err := Simulate(cp, hw)
		if err != nil {
			t.Fatal(err)
		}
		if drain := r.TotalCycles - max(r.ComputeCycles, r.TrafficCycles); drain != int64(cfg.ANDLatency()) {
			t.Errorf("Garbler %v: drain %d cycles, want the program's AND latency %d", garbler, drain, cfg.ANDLatency())
		}
		if _, tr, err := SimulateTraced(cp, hw, 4); err != nil || len(tr.Occupancy) != cfg.NumGEs {
			t.Errorf("Garbler %v: trace rows for %d GEs (err %v)", garbler, cfg.NumGEs, err)
		}
		m, err := SimulateMultiCore([]*compiler.Compiled{cp}, hw, 1)
		if err != nil || m.ComputeCycles != r.ComputeCycles+int64(cfg.ANDLatency()) {
			t.Errorf("Garbler %v: one core's compute %d, want %d + %d (err %v)",
				garbler, m.ComputeCycles, r.ComputeCycles, cfg.ANDLatency(), err)
		}
	}
}

// TestReadyWidthRule checks the int32/int64 choice at its boundary:
// (n+1) × step < 2^31, where step counts two DRAM round trips only
// under OoRPull.
func TestReadyWidthRule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		garbler bool
		set     func(*HW)
		step    int64
	}{
		{"push", false, func(*HW) {}, 18 + writeBackPenalty + 1},
		{"garbler", true, func(*HW) {}, 21 + writeBackPenalty + 1},
		{"no-forwarding", false, func(h *HW) { h.Forwarding = false }, 18 + writeBackPenalty + 1},
		{"oor-pull", false, func(h *HW) { h.OoRPull = true }, 18 + writeBackPenalty + 1 + 2*100},
	} {
		cfg := compiler.DefaultConfig()
		cfg.GarblerPipeline = tc.garbler
		hw := DefaultHW()
		tc.set(&hw)
		// last is the largest n with (n+1) × step < 2^31.
		last := int((1<<31-1)/tc.step) - 1
		if int64(last+1)*tc.step >= 1<<31 || int64(last+2)*tc.step < 1<<31 {
			t.Fatalf("%s: bad boundary %d for step %d", tc.name, last, tc.step)
		}
		if !readyFits32(last, cfg, hw) {
			t.Errorf("%s: %d instructions (just under the bound) not int32", tc.name, last)
		}
		if readyFits32(last+1, cfg, hw) {
			t.Errorf("%s: %d instructions (just over the bound) int32", tc.name, last+1)
		}
	}
	// The paper-scale BubbSt (about 11.5 M instructions) fits under push
	// and not under the pull ablation.
	cfg, hw := compiler.DefaultConfig(), DefaultHW()
	if !readyFits32(11_500_000, cfg, hw) {
		t.Error("11.5 M instructions not int32 under push")
	}
	hw.OoRPull = true
	if readyFits32(11_500_000, cfg, hw) {
		t.Error("11.5 M instructions int32 under OoRPull")
	}
}

func TestBankConflictsBounded(t *testing.T) {
	// 4 banks/GE at 2x clock should keep conflicts rare (§5).
	hw := DefaultHW()
	cp := compileFor(t, workloads.MatMult(4, 8), smallCfg(8, compiler.FullReorder))
	r, err := Simulate(cp, hw)
	if err != nil {
		t.Fatal(err)
	}
	if r.BankConflicts > int64(len(cp.Program.Instrs))/2 {
		t.Fatalf("bank conflicts %d out of %d instructions: banking model broken",
			r.BankConflicts, len(cp.Program.Instrs))
	}
}

func TestSingleGESerializes(t *testing.T) {
	hw := DefaultHW()
	cp := compileFor(t, workloads.AddN(32), smallCfg(1, compiler.Baseline))
	r, err := Simulate(cp, hw)
	if err != nil {
		t.Fatal(err)
	}
	if r.ComputeCycles < int64(len(cp.Program.Instrs)) {
		t.Fatal("one GE cannot issue faster than one instruction per cycle")
	}
}

func TestTrace(t *testing.T) {
	hw := DefaultHW()
	cp := compileFor(t, workloads.MatMult(3, 16), smallCfg(4, compiler.FullReorder))
	res, tr, err := SimulateTraced(cp, hw, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Occupancy) != cp.Cfg.NumGEs {
		t.Fatalf("trace rows: %d", len(tr.Occupancy))
	}
	// Total traced issues must equal the instruction count.
	var total float64
	for _, row := range tr.Occupancy {
		for _, v := range row {
			total += float64(v) * float64(tr.CyclesPerBucket)
		}
	}
	n := float64(len(cp.Program.Instrs))
	if total < n*0.999 || total > n*1.001 {
		t.Fatalf("trace accounts for %.0f issues, program has %.0f", total, n)
	}
	if res.Utilization() <= 0 || res.Utilization() > 1 {
		t.Fatalf("utilization %v out of range", res.Utilization())
	}
	s := tr.Render()
	if !strings.Contains(s, "GE0") || !strings.Contains(s, "|") {
		t.Fatal("render broken")
	}
}

func TestUtilizationAndImbalance(t *testing.T) {
	hw := DefaultHW()
	cp := compileFor(t, workloads.Hamming(512), smallCfg(4, compiler.FullReorder))
	r, err := Simulate(cp, hw)
	if err != nil {
		t.Fatal(err)
	}
	if r.LoadImbalance() < 1 {
		t.Fatalf("imbalance %v < 1", r.LoadImbalance())
	}
	if r.LoadImbalance() > 2 {
		t.Fatalf("streams badly imbalanced: %v", r.LoadImbalance())
	}
	var sum int64
	for _, n := range r.IssuedPerGE {
		sum += n
	}
	if sum != int64(len(cp.Program.Instrs)) {
		t.Fatal("issued-per-GE does not sum to instruction count")
	}
}

func TestCoupledMatchesDecoupledWithinTolerance(t *testing.T) {
	// The co-design claim: with realistic queue sizes the finite-queue
	// model lands near the decoupled max(compute, traffic) bound.
	for _, wname := range []string{"MatMult", "Hamm", "DotProd"} {
		var w workloads.Workload
		for _, cand := range workloads.VIPSuiteSmall() {
			if cand.Name == wname {
				w = cand
			}
		}
		hw := DefaultHW()
		cp := compileFor(t, w, smallCfg(4, compiler.FullReorder))
		r, err := SimulateCoupled(cp, hw, DefaultQueues())
		if err != nil {
			t.Fatal(err)
		}
		if r.TotalCycles < r.DecoupledCycles {
			t.Fatalf("%s: coupled model (%d) beat its own lower bound (%d)",
				wname, r.TotalCycles, r.DecoupledCycles)
		}
		if e := r.CouplingError(); e > 0.5 {
			t.Fatalf("%s: coupled model %.0f%% above the decoupled bound; decoupling claim broken",
				wname, 100*e)
		}
	}
}

func TestCoupledTinyQueuesHurt(t *testing.T) {
	var w workloads.Workload
	for _, cand := range workloads.VIPSuiteSmall() {
		if cand.Name == "MatMult" {
			w = cand
		}
	}
	hw := DefaultHW()
	cp := compileFor(t, w, smallCfg(4, compiler.FullReorder))
	good, err := SimulateCoupled(cp, hw, DefaultQueues())
	if err != nil {
		t.Fatal(err)
	}
	tiny := QueueConfig{InstrEntries: 2, TableEntries: 1, OoRWEntries: 1, WriteEntries: 1}
	bad, err := SimulateCoupled(cp, hw, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if bad.TotalCycles <= good.TotalCycles {
		t.Fatalf("starving the queues did not hurt (%d vs %d)", bad.TotalCycles, good.TotalCycles)
	}
}

// TestSimInstrSize: the live bit the coupled model reads fits in the
// replay record's padding.
func TestSimInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(simInstr{}); n != 16 {
		t.Fatalf("simInstr is %d bytes, want 16", n)
	}
}

// TestCoupledBanksMatchReplay: with queues that never empty and DRAM
// that never starves a stream, the coupled model is the replay plus its
// one-cycle start-up, the last write-backs and the pipeline drain, so it
// may not land below the replay's compute cycles or far above them, at
// any banking. It fails if the two models' bank rules differ.
func TestCoupledBanksMatchReplay(t *testing.T) {
	endless := QueueConfig{InstrEntries: 1 << 30, TableEntries: 1 << 30, OoRWEntries: 1 << 30, WriteEntries: 1 << 30}
	for _, w := range workloads.VIPSuiteSmall() {
		c := w.Build()
		for _, garbler := range []bool{false, true} {
			cfg := compiler.DefaultConfig()
			cfg.GarblerPipeline = garbler
			cp, err := compiler.Compile(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []struct{ banks, clock int }{{4, 2}, {1, 1}, {1, 2}} {
				hw := DefaultHW()
				hw.BanksPerGE = b.banks
				hw.SWWClock = float64(b.clock) * hw.GEClock
				hw.DRAM.Bandwidth = 1e18
				r, err := Simulate(cp, hw)
				if err != nil {
					t.Fatal(err)
				}
				cr, err := SimulateCoupled(cp, hw, endless)
				if err != nil {
					t.Fatal(err)
				}
				if gap := cr.TotalCycles - r.ComputeCycles; gap < 0 || gap > 64 {
					t.Errorf("%s, Garbler %v, %d banks/GE at %dx: coupled %d cycles, replay's compute %d (gap %+d)",
						w.Name, garbler, b.banks, b.clock, cr.TotalCycles, r.ComputeCycles, gap)
				}
			}
		}
	}
}

func TestCompileSimulateAllocsIndependentOfSize(t *testing.T) {
	// Every per-instruction array of Compile and Simulate is allocated
	// once at its final size, so the allocation count of one
	// compile+simulate does not grow with the circuit. ReLU's depth does
	// not grow with its width, so neither does the depth-first stack.
	hw := DefaultHW()
	allocs := func(w workloads.Workload) float64 {
		c := w.Build()
		cfg := smallCfg(4, compiler.SegmentReorder)
		return testing.AllocsPerRun(3, func() {
			cp, err := compiler.Compile(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Simulate(cp, hw); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(workloads.ReLU(64, 32)), allocs(workloads.ReLU(256, 32))
	if small != large {
		t.Fatalf("Compile+Simulate allocates %v times for ReLU(64) and %v for ReLU(256); some array grows by append", small, large)
	}
	t.Logf("%v allocations per Compile+Simulate", small)
}

// benchMatMult is the full suite's MatMult(8, 32), about 1.6M
// instructions, compiled at the paper's design point.
func benchMatMult(b *testing.B) *compiler.Compiled {
	c := workloads.MatMult(8, 32).Build()
	cp, err := compiler.Compile(c, compiler.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return cp
}

func BenchmarkSimulate(b *testing.B) {
	cp := benchMatMult(b)
	hw := DefaultHW()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cp, hw); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cp.Program.Instrs))*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}
