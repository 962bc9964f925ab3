package bench

import (
	"fmt"
	"runtime"
	"time"

	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
)

// Memory experiment: the software mirror of the paper's segment
// reordering (§4.2.1) and renaming / out-of-range-wire story (§3.1.4).
// The dense reference garbler holds one label per circuit wire per run;
// a precompiled plan schedules the circuit segment by segment, renames
// the write-once wire space onto ≈ peak-live slots and reuses one arena
// across runs. The experiment reports, per VIP workload, how far the
// working set shrinks (peak-live width vs total wires and vs what a
// whole-circuit level order would keep live, resident label bytes),
// what the schedule costs (steps vs levels, plan build time and heap)
// and what it does to steady-state heap allocations per run.

// MemoryRow reports one workload's dense-vs-planned memory profile.
type MemoryRow struct {
	Name     string
	Wires    int // total circuit wires
	Slots    int // renamed slot-space width (== peak-live wires)
	ANDGates int
	// Levels and LevelPeakLive describe whole-circuit level order, the
	// schedule plans had before they were segmented: its step count (the
	// dependence depth) and the wires it keeps live. Steps is the
	// segment-local schedule's step count; Slots is its peak-live.
	Levels, LevelPeakLive, Steps int
	// BuildMS and PlanHeapMB are circuit.NewPlan's wall time and the heap
	// the finished plan retains.
	BuildMS, PlanHeapMB float64
	// DenseLabelBytes / PlanLabelBytes are the resident label-array
	// bytes of one execution on the reference path and the plan engine.
	DenseLabelBytes int64
	PlanLabelBytes  int64
	// DenseAllocs / PlanAllocs are steady-state heap allocations for one
	// full garble+evaluate cycle (not counting one-time plan/runner
	// construction, which is amortized across runs).
	DenseAllocs float64
	PlanAllocs  float64
}

// LiveFraction returns Slots/Wires — the paper's "how small can the
// window be" quantity.
func (r MemoryRow) LiveFraction() float64 {
	if r.Wires == 0 {
		return 0
	}
	return float64(r.Slots) / float64(r.Wires)
}

// allocsPerRun measures steady-state heap allocations of fn (averaged
// over reps) after one warm-up call, via runtime.MemStats — the bench
// package's non-testing analogue of testing.AllocsPerRun.
func allocsPerRun(reps int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	fn() // warm pools after the GC cleared them, and any lazily built state
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// levelOrderPeakLive returns the depth of c and the peak number of live
// wires under whole-circuit level order with the plan's liveness rule: a
// wire dies with its last reader's level (its own, if nothing reads it;
// never, if it is an output) and its slot is reusable one level later.
func levelOrderPeakLive(c *circuit.Circuit) (depth, peak int) {
	levels, top := circuit.Levels(c, nil, nil)
	depth = int(top)
	nin := c.NumInputs()
	lastUse := make([]int, c.NumWires())
	for i := range c.Gates {
		g, l := &c.Gates[i], int(levels[i])
		lastUse[g.A] = max(lastUse[g.A], l)
		if g.Op != circuit.INV {
			lastUse[g.B] = max(lastUse[g.B], l)
		}
	}
	for _, o := range c.Outputs {
		lastUse[o] = depth + 1
	}
	// Wire w is written at level 0 if it is an input, else at its
	// producer w-nin's level.
	born := make([]int, depth+2)
	dies := make([]int, depth+2)
	for w, last := range lastUse {
		write := 0
		if w >= nin {
			write = int(levels[w-nin])
		}
		born[write]++
		dies[max(last, write)]++
	}
	live := 0
	for l := 0; l <= depth; l++ {
		if l > 0 {
			live -= dies[l-1]
		}
		live += born[l]
		peak = max(peak, live)
	}
	return depth, peak
}

// heapAlloc returns the live heap after a collection.
func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// Memory measures the suite under the dense reference gc.Garble/
// gc.Evaluate vs a reused plan runner pair.
func (e *Env) Memory() ([]MemoryRow, string, error) {
	h := gc.RekeyedHasher{}
	const reps = 3
	var rows []MemoryRow
	for _, w := range e.Scale.Suite() {
		c := e.Circuit(w)
		heap0, t0 := heapAlloc(), time.Now()
		p, err := circuit.NewPlan(c)
		if err != nil {
			return nil, "", fmt.Errorf("memory: %s: %w", w.Name, err)
		}
		buildMS := float64(time.Since(t0).Microseconds()) / 1e3
		planHeap := float64(heapAlloc()) - float64(heap0)
		and, _, _ := c.CountOps()
		row := MemoryRow{
			Name:            w.Name,
			Wires:           c.NumWires(),
			Slots:           p.NumSlots,
			ANDGates:        and,
			Steps:           p.NumSteps(),
			BuildMS:         buildMS,
			PlanHeapMB:      planHeap / 1e6,
			DenseLabelBytes: int64(c.NumWires()) * label.Size,
			PlanLabelBytes:  int64(p.NumSlots) * label.Size,
		}
		row.Levels, row.LevelPeakLive = levelOrderPeakLive(c)

		garbled, err := gc.Garble(c, h, label.NewSource(11))
		if err != nil {
			return nil, "", err
		}
		gb, eb := w.Inputs(5)
		inputs, err := garbled.EncodeInputs(c, gb, eb)
		if err != nil {
			return nil, "", err
		}
		tables := garbled.Tables

		row.DenseAllocs = allocsPerRun(reps, func() {
			g, err := gc.Garble(c, h, label.NewSource(11))
			if err != nil {
				panic(err)
			}
			if _, err := gc.Evaluate(c, h, inputs, g.Tables); err != nil {
				panic(err)
			}
		})

		pg := gc.NewPlanGarbler(p, h)
		pe := gc.NewPlanEvaluator(p, h)
		src := label.NewSource(11)
		row.PlanAllocs = allocsPerRun(reps, func() {
			pg.Begin(src)
			if _, err := pg.Run(nil); err != nil {
				panic(err)
			}
			if _, err := pe.Eval(inputs, tables); err != nil {
				panic(err)
			}
		})
		rows = append(rows, row)
	}

	header := []string{"Bench", "wires", "levels", "steps", "level-order live", "peak-live", "live %", "build ms", "plan MB", "dense KB", "plan KB", "dense allocs/run", "plan allocs/run"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Name,
			fmt.Sprint(r.Wires),
			fmt.Sprint(r.Levels),
			fmt.Sprint(r.Steps),
			fmt.Sprint(r.LevelPeakLive),
			fmt.Sprint(r.Slots),
			fmt.Sprintf("%.1f", 100*r.LiveFraction()),
			fmt.Sprintf("%.1f", r.BuildMS),
			fmt.Sprintf("%.1f", r.PlanHeapMB),
			fmt.Sprintf("%.0f", float64(r.DenseLabelBytes)/1024),
			fmt.Sprintf("%.0f", float64(r.PlanLabelBytes)/1024),
			fmt.Sprintf("%.0f", r.DenseAllocs),
			fmt.Sprintf("%.1f", r.PlanAllocs),
		})
	}
	s := table(header, cells)
	s += "\n(levels and level-order live are what whole-circuit level order would take: its step\n" +
		"count and live wires; steps and peak-live are the plan's segment-local schedule, peak-live\n" +
		"being the renamed slot-space width — the label arena a planned run touches; build ms and\n" +
		"plan MB are circuit.NewPlan's time and the heap the plan retains;\n" +
		"dense/plan KB are resident label bytes per run at 16 B per wire/slot; allocs/run is\n" +
		"one steady-state garble+evaluate cycle — planned runs reuse one arena and the cached\n" +
		"schedule, so they stay at zero)\n"
	return rows, s, nil
}
