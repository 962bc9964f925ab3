package bench

import (
	"fmt"

	"haac/internal/compiler"
	"haac/internal/sim"
	"haac/internal/workloads"
)

// FutureWork evaluates the paper's §6.5 suggestions for closing the
// remaining gap to plaintext:
//
//   - multiple HAAC cores on batch-parallel workloads (ReLU here),
//   - and the segment-size choice study behind §4.2.1's "we set the
//     segment size to half the size of the SWW ... performs best".

// MultiCoreRow is one scaling point.
type MultiCoreRow struct {
	Cores    int
	TotalUS  float64
	SpeedupX float64 // vs one core
}

// MultiCore runs a batch of independent gradient-descent problems (the
// compute-bound, low-ILP workload where one core's 16 GEs sit mostly
// idle) across 1..8 cores with a shared HBM2 interface, and contrasts it
// with batched ReLU, which is already memory-bound at one core and
// therefore must not scale — both outcomes are the point.
func (e *Env) MultiCore() ([]MultiCoreRow, string, error) {
	const batch = 8
	gd := workloads.GradDesc(4, 5)
	relu := workloads.ReLU(512, 32)
	if e.Scale == Small {
		gd = workloads.GradDesc(2, 2)
		relu = workloads.ReLU(128, 32)
	}
	cc := cfg(compiler.FullReorder, true, e.sww2MB(), 16, false)
	hw := hwFor(sim.HBM2)

	compileOne := func(w workloads.Workload) (*compiler.Compiled, error) {
		return compiler.Compile(w.Build(), cc)
	}
	gdProg, err := compileOne(gd)
	if err != nil {
		return nil, "", fmt.Errorf("multicore: %w", err)
	}
	reluProg, err := compileOne(relu)
	if err != nil {
		return nil, "", fmt.Errorf("multicore: %w", err)
	}

	var rows []MultiCoreRow
	var out [][]string
	for _, prog := range []struct {
		name string
		cp   *compiler.Compiled
	}{{"GradDesc x8", gdProg}, {"ReLU x8", reluProg}} {
		shards := make([]*compiler.Compiled, batch)
		for i := range shards {
			shards[i] = prog.cp
		}
		var oneCore float64
		for _, cores := range []int{1, 2, 4, 8} {
			mr, err := sim.SimulateMultiCore(shards, hw, cores)
			if err != nil {
				return nil, "", err
			}
			us := mr.Time() * 1e6
			if cores == 1 {
				oneCore = us
			}
			r := MultiCoreRow{Cores: cores, TotalUS: us, SpeedupX: oneCore / us}
			rows = append(rows, r)
			out = append(out, []string{prog.name, fmt.Sprintf("%d", cores),
				fmt.Sprintf("%.2f", r.TotalUS), fmt.Sprintf("%.2f", r.SpeedupX)})
		}
	}
	s := table([]string{"Batch", "Cores", "Time (us)", "Speedup"}, out)
	s += "\n(§6.5 future work: compute-bound batches scale with cores; ReLU is\nalready at the shared-memory wall and must not)\n"
	return rows, s, nil
}

// SegSweepRow is one segment-size point for segment reordering.
type SegSweepRow struct {
	Fraction string // of the SWW size
	TotalMS  float64
}

// SegmentSweep validates the half-SWW segment choice on MatMult.
func (e *Env) SegmentSweep() ([]SegSweepRow, string, error) {
	var w workloads.Workload
	for _, cand := range e.Scale.Suite() {
		if cand.Name == "MatMult" {
			w = cand
		}
	}
	c := e.Circuit(w)
	swwWires := swwWires(e.sww2MB())
	fracs := []struct {
		name string
		div  int
	}{{"SWW/8", 8}, {"SWW/4", 4}, {"SWW/2 (paper)", 2}, {"SWW", 1}, {"2xSWW", 0}}
	var rows []SegSweepRow
	for _, f := range fracs {
		cc := cfg(compiler.SegmentReorder, true, e.sww2MB(), 16, false)
		if f.div == 0 {
			cc.SegmentWires = 2 * swwWires
		} else {
			cc.SegmentWires = swwWires / f.div
		}
		r, _, err := runSim(c, cc, sim.DDR4)
		if err != nil {
			return nil, "", fmt.Errorf("segsweep: %w", err)
		}
		rows = append(rows, SegSweepRow{Fraction: f.name, TotalMS: float64(r.TotalCycles) / 1e6})
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Fraction, fmt.Sprintf("%.4f", r.TotalMS)})
	}
	return rows, table([]string{"Segment size", "MatMult time (ms@1GHz)"}, out), nil
}
