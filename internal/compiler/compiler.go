// Package compiler implements the HAAC optimizing compiler (§4 of the
// paper). It lowers a Boolean circuit to a HAAC program and applies the
// three optimizations of Fig. 5:
//
//   - Reordering (§4.2.1): rescheduling instructions by dependence level
//     (Full) or by level within SWW-sized segments (Segment) to expose
//     ILP to the in-order gate engines.
//   - Renaming (§4.2.2): linearizing output wire addresses to program
//     order so the sliding wire window captures reuse without tags.
//   - Eliminating spent wires (§4.2.3): computing the live bit, so only
//     wires that are later read as out-of-range are written to DRAM.
//
// The compiler also performs the final stream-generation step of §4.1:
// partitioning instructions across gate engines with a list scheduler
// ("mapping instructions from the program to non-stalled GEs each cycle
// ... saving the order, and replaying it in hardware"), and deriving the
// per-GE table and out-of-range-wire queues.
//
// Once the schedule is fixed, the back end runs as two lanes on two
// goroutines. Every dependence is known at compile time, so the list
// scheduler needs only the schedule and the circuit's wire ids, nothing
// from renaming. One lane renames and computes the live bits in a single
// sweep; the other schedules each instruction onto a GE and counts each
// GE's instructions and tables. Its GE pick keeps the GEs at the least free time as a
// bitset and hands them out lowest index first, so choosing "the first
// GE that is not stalled" costs amortised O(1) rather than a scan of
// every GE. After the join, the OoRW queues are filled while the program
// is validated on the other goroutine.
package compiler

import (
	"fmt"
	"strings"
	"sync"

	"haac/internal/circuit"
	"haac/internal/isa"
)

// ReorderMode selects the instruction-scheduling pass.
type ReorderMode uint8

const (
	// Baseline keeps the netlist's original (depth-first) order.
	Baseline ReorderMode = iota
	// FullReorder schedules the whole program in dependence-level order.
	FullReorder
	// SegmentReorder level-orders within contiguous segments of half the
	// SWW capacity, balancing ILP against wire locality (§4.2.1). The
	// software engine schedules the same way, with the same leveling
	// pass (circuit.Levels): circuit.NewPlan cuts the gate list into
	// segments of a fixed number of AND gates rather than instructions
	// and level-orders inside each.
	SegmentReorder
)

// String names the mode as in the paper's figures.
func (m ReorderMode) String() string {
	switch m {
	case Baseline:
		return "Baseline"
	case FullReorder:
		return "Full"
	case SegmentReorder:
		return "Seg"
	}
	return fmt.Sprintf("ReorderMode(%d)", uint8(m))
}

// ParseReorderMode reads a mode as the command-line tools spell it,
// ignoring case: baseline, full, or seg (or segment).
func ParseReorderMode(s string) (ReorderMode, error) {
	switch strings.ToLower(s) {
	case "baseline":
		return Baseline, nil
	case "full":
		return FullReorder, nil
	case "seg", "segment":
		return SegmentReorder, nil
	}
	return 0, fmt.Errorf("unknown reorder mode %q", s)
}

// Config parameterizes compilation. SWWWires, NumGEs and
// GarblerPipeline are the program's target: the hardware it is
// scheduled for, which the simulator reads from Compiled.Cfg. The zero
// value is not valid; use DefaultConfig.
type Config struct {
	// Reorder selects the scheduling pass.
	Reorder ReorderMode
	// ESW enables the eliminating-spent-wires pass. Renaming always
	// runs: without it the SWW is ineffectual (§6.1), and the ISA's
	// implicit output addressing requires it.
	ESW bool
	// SWWWires is the SWW capacity in wires. 2 MB / 16 B = 131072 wires
	// is the paper's default configuration.
	SWWWires int
	// SegmentWires overrides the segment size for SegmentReorder;
	// 0 means half the SWW capacity (the paper's choice).
	SegmentWires int
	// NoSWW models the paper's un-renamed baseline, where "without
	// renaming the SWW is ineffectual" (§6.1): every instruction input
	// is charged as an out-of-range read and every produced wire as a
	// live write. Renaming still assigns output addresses (the ISA
	// derives them from the PC) but the window filters nothing. Used
	// for Fig. 6's green "Baseline" bars.
	NoSWW bool
	// NumGEs is the gate-engine count used for stream partitioning,
	// 1..MaxGEs.
	NumGEs int
	// GarblerPipeline selects the 21-stage Garbler AND latency for the
	// partitioning scheduler instead of the 18-stage Evaluator one.
	GarblerPipeline bool
}

// DefaultConfig is the paper's headline configuration: 16 GEs, 2 MB SWW,
// full reorder + renaming + ESW, Evaluator pipelines.
func DefaultConfig() Config {
	return Config{
		Reorder:  FullReorder,
		ESW:      true,
		SWWWires: 2 * 1024 * 1024 / 16,
		NumGEs:   16,
	}
}

// MaxGEs is the largest gate-engine count a program can be compiled
// for: Compiled.GEOf holds a GE index in one byte.
const MaxGEs = 256

// Pipeline depths (§3.2): the Half-Gate units are 21-stage (Garbler) and
// 18-stage (Evaluator); FreeXOR completes in a single cycle.
const (
	GarblerANDLatency   = 21
	EvaluatorANDLatency = 18
	XORLatency          = 1
)

// ANDLatency returns the Half-Gate pipeline depth for the configured
// party.
func (c Config) ANDLatency() int {
	if c.GarblerPipeline {
		return GarblerANDLatency
	}
	return EvaluatorANDLatency
}

func (c Config) segmentSize() int {
	if c.SegmentWires > 0 {
		return c.SegmentWires
	}
	return c.SWWWires / 2
}

// Traffic summarizes the off-chip wire traffic a compiled program will
// generate — the quantities of Table 2 (spent-wire %) and Table 3
// (live/OoRW/total wires).
type Traffic struct {
	// LiveWires is the number of output wires written back to DRAM.
	LiveWires int
	// OoRWires is the number of out-of-range wire reads.
	OoRWires int
	// Outputs is the total number of produced wires (instructions).
	Outputs int
}

// Total returns live + OoR wire traffic, Table 3's rightmost column.
func (t Traffic) Total() int { return t.LiveWires + t.OoRWires }

// SpentPercent is Table 2's "Spent Wire %": the share of produced wires
// never written off-chip.
func (t Traffic) SpentPercent() float64 {
	if t.Outputs == 0 {
		return 0
	}
	return 100 * (1 - float64(t.LiveWires)/float64(t.Outputs))
}

// Compiled is the full compiler output: the global program plus the
// per-GE streams the hardware replays.
type Compiled struct {
	Cfg     Config
	Program isa.Program
	// GEOf maps each instruction (program order) to its gate engine. A
	// GE's instruction stream is the instructions mapped to it, in
	// program order; hardware fetches it via the GE's instruction queue.
	GEOf []uint8
	// OoRW holds, per GE, the logical wire addresses its OoRW queue
	// delivers, in consumption order. The queues are capped sub-slices
	// of one slab, GE after GE: appending to one reallocates it rather
	// than overwriting the next.
	OoRW [][]uint32
	// InstrsPerGE counts instructions per GE (instruction stream
	// lengths).
	InstrsPerGE []int
	// TablesPerGE counts AND instructions per GE (table queue depths).
	TablesPerGE []int
	// Traffic is the off-chip wire traffic summary.
	Traffic Traffic
	// SynthConstOne reports that INV lowering appended a constant-one
	// wire as the last program input.
	SynthConstOne bool

	// oorA/oorB hold, per instruction, the original logical address of
	// an operand that was rewritten to the OoR sentinel (0 = in range).
	oorA, oorB []uint32
}

// Compile lowers the circuit and runs all configured passes.
func Compile(c *circuit.Circuit, cfg Config) (*Compiled, error) {
	if cfg.SWWWires < 4 {
		return nil, fmt.Errorf("compiler: SWW capacity %d too small", cfg.SWWWires)
	}
	if cfg.NumGEs < 1 || cfg.NumGEs > MaxGEs {
		return nil, fmt.Errorf("compiler: %d GEs, need 1..%d", cfg.NumGEs, MaxGEs)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}

	asm := assemble(c)
	switch cfg.Reorder {
	case Baseline:
	case FullReorder:
		asm.reorder(c, len(c.Gates))
	case SegmentReorder:
		asm.reorder(c, cfg.segmentSize())
	default:
		return nil, fmt.Errorf("compiler: unknown reorder mode %d", cfg.Reorder)
	}

	// The back end runs in two lanes over the finished schedule: renaming
	// and ESW on one goroutine, the GE list scheduler on the other. They write disjoint fields of out.
	out := &Compiled{Cfg: cfg, SynthConstOne: asm.synthConstOne}
	both(func() { asm.scheduleLane(c, out) }, func() { asm.renameLane(c, out) })
	if !cfg.ESW {
		// Without ESW every produced wire is conservatively live
		// (written back), as in the pre-optimization baseline flow.
		for i := range out.Program.Instrs {
			out.Program.Instrs[i].Live = true
		}
		out.Traffic.LiveWires = len(out.Program.Instrs)
	}
	var verr error
	both(func() { verr = out.Program.Validate() }, out.fillOoRW)
	if verr != nil {
		return nil, fmt.Errorf("compiler: internal error: %w", verr)
	}
	return out, nil
}

// WindowLo returns the lowest wire address held by the SWW once the
// output frontier has reached addr f, for a window of n wires. The SWW
// is managed in halves (§3.1.1): it initially covers [0, n) and slides
// forward n/2 wires every time the frontier crosses a half boundary.
func WindowLo(f uint32, n int) uint32 {
	if int(f) < n {
		return 0
	}
	half := uint32(n / 2)
	return (f-uint32(n))/half*half + half
}

// both runs f on a new goroutine and g on this one, and returns once
// both are done. f and g must write disjoint state.
func both(f, g func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f()
	}()
	g()
	wg.Wait()
}
