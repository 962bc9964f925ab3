package bench

import (
	"strings"
	"testing"

	"haac/internal/aes128"
	"haac/internal/compiler"
)

func env(t *testing.T) *Env {
	t.Helper()
	return NewEnv(Small)
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("paper"); err != nil || s != Paper {
		t.Fatal("paper scale")
	}
	if s, err := ParseScale("SMALL"); err != nil || s != Small {
		t.Fatal("small scale")
	}
	if _, err := ParseScale("medium"); err == nil {
		t.Fatal("bad scale accepted")
	}
}

func TestTable1Static(t *testing.T) {
	s := Table1()
	for _, want := range []string{"GCs", "TFHE", "Moderate"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2(t *testing.T) {
	rows, s, err := env(t).Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("Table 2 has %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.GatesK <= 0 || r.Levels <= 0 {
			t.Fatalf("row %s has empty stats", r.Name)
		}
		if r.SpentWirePc < 0 || r.SpentWirePc > 100 {
			t.Fatalf("row %s spent%% out of range: %v", r.Name, r.SpentWirePc)
		}
	}
	if !strings.Contains(s, "BubbSt") {
		t.Fatal("formatting broken")
	}
}

func TestTable3TradeoffDirection(t *testing.T) {
	rows, _, err := env(t).Table3()
	if err != nil {
		t.Fatal(err)
	}
	// At least one benchmark must favour segment reordering (Table 3's
	// top group exists at any scale with a matched SWW).
	favourSeg := 0
	for _, r := range rows {
		if r.TotalSegK <= r.TotalFullK {
			favourSeg++
		}
	}
	if favourSeg == 0 {
		t.Fatal("no benchmark favours segment reordering; Table 3 shape lost")
	}
}

func TestFig6OptimizationsHelp(t *testing.T) {
	rows, s, err := env(t).Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatal("Fig 6 rows")
	}
	better := 0
	for _, r := range rows {
		if r.Baseline <= 0 || r.RORN <= 0 || r.ESW <= 0 {
			t.Fatalf("%s: non-positive speedup", r.Name)
		}
		if r.ESW >= r.Baseline {
			better++
		}
	}
	// The full optimization stack must beat the baseline schedule on a
	// clear majority of benchmarks (paper: all of them).
	if better < 6 {
		t.Fatalf("optimizations beat baseline on only %d/8 benchmarks\n%s", better, s)
	}
}

func TestFig7Shape(t *testing.T) {
	rows, _, err := env(t).Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Fig 7 needs MatMult and BubbSt, got %d rows", len(rows))
	}
	for _, row := range rows {
		if len(row.Cells) != 9 {
			t.Fatalf("%s: %d cells, want 9", row.Name, len(row.Cells))
		}
		// Growing the SWW must not increase wire traffic (within an
		// ordering).
		for i := 0; i+1 < len(row.Cells); i++ {
			a, b := row.Cells[i], row.Cells[i+1]
			if a.Order == b.Order && b.Wire > a.Wire {
				t.Fatalf("%s %v: wire traffic grew with SWW (%v -> %v)",
					row.Name, a.Order, a.Wire, b.Wire)
			}
		}
	}
}

func TestFig8Scaling(t *testing.T) {
	rows, _, err := env(t).Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// HBM2 speedup must be weakly monotone in GE count.
		for i := 1; i < len(r.HBM2); i++ {
			if r.HBM2[i] < r.HBM2[i-1]*0.95 {
				t.Fatalf("%s: HBM2 speedup dropped from %.1f to %.1f at %d GEs",
					r.Name, r.HBM2[i-1], r.HBM2[i], r.GEs[i])
			}
		}
		// HBM2 must never lose to DDR4.
		last := len(r.GEs) - 1
		if r.HBM2[last] < r.DDR4[last]*0.95 {
			t.Fatalf("%s: HBM2 slower than DDR4 at 16 GEs", r.Name)
		}
	}
}

func TestFig9(t *testing.T) {
	rows, _, err := env(t).Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		sum := r.Breakdown.HalfGate + r.Breakdown.Crossbar + r.Breakdown.SRAM +
			r.Breakdown.Others + r.Breakdown.DRAMPHY
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s: breakdown sums to %v", r.Name, sum)
		}
		if r.EfficiencyKx <= 0 {
			t.Fatalf("%s: non-positive efficiency", r.Name)
		}
	}
}

func TestFig10Ordering(t *testing.T) {
	rows, _, err := env(t).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// HAAC must beat CPU GC, and HBM2 must not lose to DDR4.
		if r.HAACDDR4 >= r.CPUGC {
			t.Fatalf("%s: HAAC DDR4 (%.3g) not faster than CPU GC (%.3g)", r.Name, r.HAACDDR4, r.CPUGC)
		}
		if r.HAACHBM2 > r.HAACDDR4*1.05 {
			t.Fatalf("%s: HBM2 slower than DDR4", r.Name)
		}
	}
}

func TestTable4(t *testing.T) {
	s, err := env(t).Table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Half-Gate", "4.3", "HBM2 PHY", "14.9"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 4 missing %q:\n%s", want, s)
		}
	}
}

func TestTable5(t *testing.T) {
	rows, s, err := env(t).Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(priorResults) {
		t.Fatalf("Table 5 rows %d, want %d", len(rows), len(priorResults))
	}
	wins := 0
	for _, r := range rows {
		if r.Speedup > 1 {
			wins++
		}
	}
	// The paper beats every prior system; allow a little slack for our
	// heavier circuits but require a decisive majority.
	if wins < len(rows)*3/4 {
		t.Fatalf("HAAC wins only %d/%d comparisons\n%s", wins, len(rows), s)
	}
}

func TestGarblerVsEvaluator(t *testing.T) {
	ratio, _, err := env(t).GarblerVsEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 0.99 || ratio > 1.3 {
		t.Fatalf("garbler/evaluator ratio %.3f outside plausible band", ratio)
	}
}

func TestMemoryExperiment(t *testing.T) {
	rows, s, err := env(t).Memory()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("memory rows = %d, want the full VIP suite (8)\n%s", len(rows), s)
	}
	for _, r := range rows {
		// The acceptance invariant: renaming compacts every VIP workload
		// below its dense wire count.
		if r.Slots >= r.Wires {
			t.Fatalf("%s: peak-live %d not below %d wires\n%s", r.Name, r.Slots, r.Wires, s)
		}
		if r.PlanLabelBytes >= r.DenseLabelBytes {
			t.Fatalf("%s: planned label bytes did not shrink\n%s", r.Name, s)
		}
		if r.LiveFraction() <= 0 || r.LiveFraction() >= 1 {
			t.Fatalf("%s: live fraction %.3f out of (0,1)", r.Name, r.LiveFraction())
		}
		// Planned steady state must allocate (far) less than dense; the
		// exact zero is asserted by the race-gated gc regression test.
		// Under the race detector sync.Pool stops caching, so the counts
		// lose meaning there.
		if !raceEnabled && r.PlanAllocs > r.DenseAllocs {
			t.Fatalf("%s: planned allocs %.1f above dense %.1f", r.Name, r.PlanAllocs, r.DenseAllocs)
		}
	}
	if !strings.Contains(s, "peak-live") {
		t.Fatal("formatting broken")
	}
}

func TestCfgHelpers(t *testing.T) {
	c := cfg(compiler.FullReorder, true, 2, 16, false)
	if c.SWWWires != 131072 {
		t.Fatalf("2 MB SWW = %d wires, want 131072", c.SWWWires)
	}
}

func TestAblations(t *testing.T) {
	rows, s, err := env(t).Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("ablation rows = %d, want 12\n%s", len(rows), s)
	}
	byVariant := map[string]AblationRow{}
	for _, r := range rows {
		if r.Workload == "BubbSt" {
			byVariant[r.Variant] = r
		}
	}
	base := byVariant["baseline (paper design)"]
	// Pull-based OoR must hurt a workload with OoR traffic.
	if p := byVariant["pull-based OoR reads"]; p.Total < base.Total {
		t.Fatalf("pull-based OoR faster than push (%v vs %v)", p.Total, base.Total)
	}
	// Removing the SWW must increase end-to-end time on a reuse-heavy
	// workload.
	if p := byVariant["no SWW (stream all wires)"]; p.Total < base.Total {
		t.Fatalf("removing the SWW did not hurt (%v vs %v)", p.Total, base.Total)
	}
	// Removing forwarding must not help compute.
	if p := byVariant["no forwarding network"]; p.Compute < base.Compute {
		t.Fatalf("removing forwarding improved compute")
	}
}

func TestMultiCore(t *testing.T) {
	rows, s, err := env(t).MultiCore()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("multicore rows: %d", len(rows))
	}
	gd := rows[:4]
	relu := rows[4:]
	// Compute-bound batch must gain from a second core (further cores
	// saturate the shared memory interface sooner at small scale).
	if gd[1].SpeedupX < 1.5 {
		t.Fatalf("2 cores gave %.2fx on GradDesc batch\n%s", gd[1].SpeedupX, s)
	}
	// No configuration may get slower with more cores.
	for _, set := range [][]MultiCoreRow{gd, relu} {
		for i := 1; i < len(set); i++ {
			if set[i].TotalUS > set[i-1].TotalUS*1.01 {
				t.Fatalf("more cores got slower:\n%s", s)
			}
		}
	}
	// Memory-bound ReLU must NOT benefit much — it is at the shared wall.
	if relu[3].SpeedupX > 2.5 {
		t.Fatalf("ReLU batch scaled %.2fx; memory wall modeling broken\n%s", relu[3].SpeedupX, s)
	}
}

func TestSegmentSweep(t *testing.T) {
	rows, s, err := env(t).SegmentSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("segment sweep rows: %d\n%s", len(rows), s)
	}
	// The paper's half-SWW point must be within 10% of the sweep's best.
	best := rows[0].TotalMS
	var half float64
	for _, r := range rows {
		if r.TotalMS < best {
			best = r.TotalMS
		}
		if r.Fraction == "SWW/2 (paper)" {
			half = r.TotalMS
		}
	}
	if half > best*1.10 {
		t.Fatalf("half-SWW segments %.4f ms vs best %.4f ms; paper's choice not near-optimal\n%s", half, best, s)
	}
}

func TestCoupling(t *testing.T) {
	rows, s, err := env(t).Coupling()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("coupling rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.CoupledCycles < r.DecoupledCycles {
			t.Fatalf("%s: coupled model beat the lower bound\n%s", r.Name, s)
		}
		if r.ErrorPct > 60 {
			t.Fatalf("%s: coupled model %.0f%% above bound; decoupling claim broken\n%s", r.Name, r.ErrorPct, s)
		}
	}
}

// TestRekeyRowsNameTheOneGateTier: the reference walk behind the
// rekeying rows garbles a gate at a time, so on either VAES tier the
// serving hashers' rows must say aesni, the tier that path runs on.
func TestRekeyRowsNameTheOneGateTier(t *testing.T) {
	want := map[string]string{"vaes512": "aesni", "vaes": "aesni", "aesni": "aesni", "ttable": "ttable"}[aes128.Backend()]
	if want == "" {
		t.Fatalf("unknown aes128 backend %q", aes128.Backend())
	}
	for _, e := range rekeyHashers() {
		switch name := e.h.Name(); name {
		case "rekeyed", "fixed-key":
			if e.backend != want {
				t.Fatalf("%s row on the %s tier claims %s, want %s", name, aes128.Backend(), e.backend, want)
			}
		default:
			if e.backend != "ttable" {
				t.Fatalf("%s row claims %s, want ttable", name, e.backend)
			}
		}
	}
}
