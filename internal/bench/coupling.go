package bench

import (
	"fmt"

	"haac/internal/compiler"
	"haac/internal/sim"
)

// Coupling validates the decoupled max(compute, traffic) model the
// headline simulator (and the paper's own Fig. 7 analysis) uses: it
// re-runs benchmarks under the finite-queue coupled model and reports
// how far above the decoupled bound the "real" machine lands. Small
// gaps confirm §3.1.4's claim that push-based streams make off-chip
// movement fully overlappable.
type CouplingRow struct {
	Name            string
	DecoupledCycles int64
	CoupledCycles   int64
	ErrorPct        float64
}

// Coupling runs the validation on the suite (paper-scale BubbSt/GradDesc
// are skipped: the cycle-by-cycle coupled model is O(cycles), and the
// shape is identical on the mid-size benchmarks).
func (e *Env) Coupling() ([]CouplingRow, string, error) {
	var rows []CouplingRow
	for _, w := range e.Scale.Suite() {
		if e.Scale == Paper && (w.Name == "BubbSt" || w.Name == "GradDesc" || w.Name == "Triangle") {
			continue
		}
		c := e.Circuit(w)
		cc := cfg(compiler.FullReorder, true, e.sww2MB(), 16, false)
		cp, err := compiler.Compile(c, cc)
		if err != nil {
			return nil, "", fmt.Errorf("coupling %s: %w", w.Name, err)
		}
		r, err := sim.SimulateCoupled(cp, hwFor(sim.DDR4), sim.DefaultQueues())
		if err != nil {
			return nil, "", fmt.Errorf("coupling %s: %w", w.Name, err)
		}
		rows = append(rows, CouplingRow{
			Name:            w.Name,
			DecoupledCycles: r.DecoupledCycles,
			CoupledCycles:   r.TotalCycles,
			ErrorPct:        100 * r.CouplingError(),
		})
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Name,
			fmt.Sprintf("%d", r.DecoupledCycles), fmt.Sprintf("%d", r.CoupledCycles),
			fmt.Sprintf("%+.1f%%", r.ErrorPct)})
	}
	s := table([]string{"Benchmark", "Decoupled (cyc)", "Coupled (cyc)", "Gap"}, out)
	s += "\n(finite queues + shared DRAM streamer vs the max(compute,traffic)\nbound; small gaps validate the §3.1.4 decoupling claim)\n"
	return rows, s, nil
}
