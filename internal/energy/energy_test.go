package energy

import (
	"testing"
	"time"

	"haac/internal/compiler"
	"haac/internal/sim"
	"haac/internal/workloads"
)

func simulate(t *testing.T) sim.Result {
	t.Helper()
	c := workloads.MatMult(4, 16).Build()
	cp, err := compiler.Compile(c, compiler.Config{
		Reorder: compiler.FullReorder, ESW: true, SWWWires: 4096, NumGEs: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Simulate(cp, sim.DefaultHW())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTable4AreaReference(t *testing.T) {
	a := AreaFor(16, 2*1024*1024)
	if a.HalfGate != AreaHalfGate || a.SWW != AreaSWW {
		t.Fatal("reference config must reproduce Table 4 exactly")
	}
	total := a.Total()
	if total < 4.2 || total > 4.5 {
		t.Fatalf("total HAAC area %.2f mm^2, Table 4 says 4.33", total)
	}
}

func TestAreaScaling(t *testing.T) {
	half := AreaFor(8, 1024*1024)
	if half.HalfGate >= AreaHalfGate || half.SWW >= AreaSWW {
		t.Fatal("smaller config must have smaller area")
	}
	if got, want := half.HalfGate*2, AreaHalfGate; !close(got, want, 1e-9) {
		t.Fatal("GE logic must scale linearly with GE count")
	}
}

func TestEnergyBreakdownShape(t *testing.T) {
	r := simulate(t)
	b := Energy(r)
	if b.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
	n := b.Normalized()
	sum := n.HalfGate + n.Crossbar + n.SRAM + n.Others + n.DRAMPHY
	if !close(sum, 1, 1e-9) {
		t.Fatalf("normalized breakdown sums to %v", sum)
	}
	// Fig. 9: the Half-Gate dominates (~61% average across benchmarks).
	if n.HalfGate < 0.3 {
		t.Fatalf("Half-Gate at %.0f%% of energy; paper has it dominant", 100*n.HalfGate)
	}
}

func TestAveragePowerPlausible(t *testing.T) {
	// §6.4: the paper reports ~1.5 W average at the 16-GE design point.
	// Our calibrated model should land within a small factor for a
	// compute-dense run.
	r := simulate(t)
	p := AveragePower(r)
	if p < 0.1 || p > 10 {
		t.Fatalf("average power %.2f W implausible vs the paper's ~1.5 W", p)
	}
}

func TestEfficiencyVsCPU(t *testing.T) {
	r := simulate(t)
	// If a CPU took 1000x longer at 25 W, efficiency must exceed 1000x
	// whenever HAAC's power is below 25 W.
	cpuTime := time.Duration(1000 * float64(r.Time()))
	eff := EfficiencyVsCPU(r, cpuTime)
	if AveragePower(r) < CPUPower && eff < 1000 {
		t.Fatalf("efficiency %.0fx inconsistent with power ratio", eff)
	}
}

func TestMoreTrafficMoreDRAMEnergy(t *testing.T) {
	r := simulate(t)
	b1 := Energy(r)
	r.Traffic.LiveBytes *= 4
	b2 := Energy(r)
	if b2.DRAMPHY <= b1.DRAMPHY {
		t.Fatal("extra traffic did not increase DRAM energy")
	}
}

func close(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}
