package bench

import (
	"fmt"
	"time"

	"haac/internal/compiler"
	"haac/internal/sim"
)

// Ablations quantifies the design choices DESIGN.md calls out, each of
// which the paper argues for qualitatively:
//
//   - the wire-forwarding network (§3.2) vs resolving hazards through
//     SWW write-back and re-read;
//   - push-based OoRW queues (§3.1.4) vs a pull-based design that
//     stalls on each out-of-range read;
//   - the SWW (§3.1.1) vs streaming every wire off-chip;
//   - the 4-banks-per-GE SWW ratio (§5) vs less banking.
//
// Each row reports end-to-end and compute-only time at the headline
// 16-GE configuration, on a reuse-heavy and a streaming workload.
type AblationRow struct {
	Workload   string
	Variant    string
	Total      time.Duration
	Compute    time.Duration
	SlowVsBase float64
}

// Ablations runs the ablation matrix.
func (e *Env) Ablations() ([]AblationRow, string, error) {
	type variant struct {
		name string
		cc   func(compiler.Config) compiler.Config
		hw   func(sim.HW) sim.HW
	}
	id := func(c compiler.Config) compiler.Config { return c }
	hid := func(h sim.HW) sim.HW { return h }
	variants := []variant{
		{"baseline (paper design)", id, hid},
		{"no forwarding network", id, func(h sim.HW) sim.HW { h.Forwarding = false; return h }},
		{"pull-based OoR reads", id, func(h sim.HW) sim.HW { h.OoRPull = true; return h }},
		{"no SWW (stream all wires)", func(c compiler.Config) compiler.Config { c.NoSWW = true; return c }, hid},
		{"1 bank per GE", id, func(h sim.HW) sim.HW { h.BanksPerGE = 1; h.SWWClock = h.GEClock; return h }},
		{"2 banks per GE", id, func(h sim.HW) sim.HW { h.BanksPerGE = 2; return h }},
	}

	var rows []AblationRow
	for _, w := range e.Scale.Suite() {
		if w.Name != "MatMult" && w.Name != "BubbSt" {
			continue
		}
		c := e.Circuit(w)
		var baseTotal time.Duration
		for _, v := range variants {
			cc := v.cc(cfg(compiler.FullReorder, true, e.sww2MB(), 16, false))
			cp, err := compiler.Compile(c, cc)
			if err != nil {
				return nil, "", fmt.Errorf("ablation %s/%s: %w", w.Name, v.name, err)
			}
			hw := v.hw(hwFor(sim.DDR4))
			r, err := sim.Simulate(cp, hw)
			if err != nil {
				return nil, "", fmt.Errorf("ablation %s/%s: %w", w.Name, v.name, err)
			}
			row := AblationRow{
				Workload: w.Name, Variant: v.name,
				Total: r.Time(), Compute: r.ComputeTime(),
			}
			if v.name == variants[0].name {
				baseTotal = r.Time()
			}
			row.SlowVsBase = r.Time().Seconds() / baseTotal.Seconds()
			rows = append(rows, row)
		}
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Workload, r.Variant, ms(r.Total), ms(r.Compute),
			fmt.Sprintf("%.2f", r.SlowVsBase)})
	}
	return rows, table([]string{"Benchmark", "Variant", "Total (ms)", "Compute (ms)", "Slowdown"}, out), nil
}
