package sim

import (
	"fmt"
	"strings"

	"haac/internal/compiler"
)

// Execution tracing: a bucketized per-GE occupancy timeline, rendered as
// an ASCII heatmap. Makes schedule pathologies visible at a glance —
// a depth-first baseline shows long pale stripes (stalled engines),
// a reordered program shows dense dark columns.

// Trace holds issue-density samples for each gate engine.
type Trace struct {
	// CyclesPerBucket is the time quantum of one column.
	CyclesPerBucket int64
	// Occupancy[g][b] is the fraction of bucket b's cycles in which GE g
	// issued an instruction.
	Occupancy [][]float32
}

// SimulateTraced is Simulate plus an occupancy trace with the requested
// number of time buckets (min 1).
func SimulateTraced(cp *compiler.Compiled, hw HW, buckets int) (Result, *Trace, error) {
	return simulateTraced(cp, hw, buckets, false)
}

// simulateTraced is SimulateTraced; wide is as for simulate.
func simulateTraced(cp *compiler.Compiled, hw HW, buckets int, wide bool) (Result, *Trace, error) {
	if buckets < 1 {
		buckets = 1
	}
	// First pass to learn the compute length (cheap relative to
	// analysis value: the benchmark's traced accel.vip pass reads
	// sim.instrs_per_host_s of 24–29 M instructions per second on a
	// 2-vCPU Xeon host).
	res, err := simulate(cp, hw, wide)
	if err != nil {
		return Result{}, nil, err
	}
	per := res.ComputeCycles / int64(buckets)
	if per < 1 {
		per = 1
	}
	tr := &Trace{
		CyclesPerBucket: per,
		Occupancy:       make([][]float32, cp.Cfg.NumGEs),
	}
	counts := make([][]int32, cp.Cfg.NumGEs)
	nb := int(res.ComputeCycles/per) + 1
	for g := range counts {
		counts[g] = make([]int32, nb)
		tr.Occupancy[g] = make([]float32, nb)
	}
	replay(cp, hw, func(g int, cycle int64) {
		b := int(cycle / per)
		if b >= nb {
			b = nb - 1
		}
		counts[g][b]++
	}, wide)
	for g := range counts {
		for b := range counts[g] {
			tr.Occupancy[g][b] = float32(counts[g][b]) / float32(per)
		}
	}
	return res, tr, nil
}

// Render draws the trace as an ASCII heatmap, one row per GE.
func (t *Trace) Render() string {
	shades := []byte(" .:-=+*#%@")
	var b strings.Builder
	fmt.Fprintf(&b, "GE occupancy (%d cycles/column; ' '=idle, '@'=issuing every cycle)\n", t.CyclesPerBucket)
	for g, row := range t.Occupancy {
		fmt.Fprintf(&b, "GE%-3d |", g)
		for _, v := range row {
			idx := int(v * float32(len(shades)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteByte(shades[idx])
		}
		b.WriteString("|\n")
	}
	return b.String()
}
