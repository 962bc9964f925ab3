// Package sim is the cycle-level HAAC accelerator model used for the
// paper's evaluation (§5 "Simulator"): gate engines with deep in-order
// Half-Gate pipelines and single-cycle FreeXOR units, a banked sliding-
// wire-window scratchpad behind a crossbar, per-GE instruction/table/
// OoRW queues, a wire-forwarding network, and a streaming DRAM model
// (DDR4 or HBM2).
//
// Following the paper's decoupling insight (§3.1.4: pushing OoR reads
// turns all off-chip movement into streams that fully overlap compute),
// the simulator computes the compute-bound time and the traffic-bound
// time independently — exactly the two bars of Fig. 7 — and reports
// their maximum as end-to-end time. Within the compute phase, stalls
// from data hazards (resolved via forwarding), structural bank conflicts
// and in-order issue are modeled cycle by cycle.
package sim

import (
	"fmt"
	"time"

	"haac/internal/gc"
	"haac/internal/isa"
)

// DRAM is a streaming memory model characterized by its bandwidth; HAAC
// converts all off-chip movement into sequential streams, so sustained
// bandwidth is the quantity that matters (§5 uses DDR4-4400 at
// 35.2 GB/s and an HBM2 PHY at 512 GB/s).
type DRAM struct {
	Name      string
	Bandwidth float64 // bytes per second
}

// DDR4 is the paper's DDR4-4400 configuration (35.2 GB/s).
var DDR4 = DRAM{Name: "DDR4", Bandwidth: 35.2e9}

// HBM2 is the paper's HBM2 PHY configuration (512 GB/s).
var HBM2 = DRAM{Name: "HBM2", Bandwidth: 512e9}

// HW describes the accelerator around a compiled program: what the
// compiler does not schedule against. The GE count, the SWW size and the
// Half-Gate pipeline a program runs on are the target it was compiled
// for, and the simulator reads them from its compiler.Config.
type HW struct {
	// BanksPerGE is the SWW banking ratio; the paper finds 4 banks/GE
	// avoids contention (§5).
	BanksPerGE int
	// GEClock is the gate-engine clock in Hz (1 GHz in the paper).
	GEClock float64
	// SWWClock is the scratchpad clock (2 GHz in the paper); the 2x
	// ratio gives each bank two access slots per GE cycle.
	SWWClock float64
	// Forwarding enables the inter-/intra-GE wire forwarding network;
	// disabling it (ablation) adds SWW write-back + read latency to
	// every dependence.
	Forwarding bool
	// OoRPull models the pull-based alternative HAAC rejects (§3.1.4):
	// instead of the compiler pushing out-of-range wires into the OoRW
	// queue ahead of use, each OoR operand stalls its in-order GE for a
	// DRAM round trip.
	OoRPull bool
	// DRAMLatencyCycles is the pull round-trip latency in GE cycles
	// (only used with OoRPull; ~100 ns of DDR4 access at 1 GHz).
	DRAMLatencyCycles int64
	// DRAM is the off-chip memory model.
	DRAM DRAM
}

// DefaultHW is the paper's headline hardware around a program: 4
// banks/GE, 1 GHz / 2 GHz clocks, forwarding on, DDR4.
func DefaultHW() HW {
	return HW{
		BanksPerGE:        4,
		GEClock:           1e9,
		SWWClock:          2e9,
		Forwarding:        true,
		DRAMLatencyCycles: 100,
		DRAM:              DDR4,
	}
}

// Validate checks the configuration.
func (hw HW) Validate() error {
	if hw.BanksPerGE < 1 {
		return fmt.Errorf("sim: BanksPerGE must be >= 1")
	}
	if hw.GEClock <= 0 || hw.SWWClock <= 0 || hw.DRAM.Bandwidth <= 0 {
		return fmt.Errorf("sim: clocks and bandwidth must be positive")
	}
	if hw.DRAMLatencyCycles < 0 {
		return fmt.Errorf("sim: DRAMLatencyCycles must be >= 0")
	}
	return nil
}

// bankSlots is the number of accesses one bank serves per GE cycle.
func (hw HW) bankSlots() int {
	r := int(hw.SWWClock / hw.GEClock)
	if r < 1 {
		r = 1
	}
	return r
}

// writeBackPenalty is the extra dependence latency without forwarding:
// two cycles to write the SWW plus three to read it back (§3.2).
const writeBackPenalty = 5

// Stream byte costs (§3.1, §5): instructions stream as 8-byte words,
// each AND gate's table is 32 bytes, wire labels are 16 bytes, and OoR
// wire addresses are 32-bit.
const (
	instrBytes   = isa.EncodedSize
	tableBytes   = gc.MaterialSize
	labelBytes   = 16
	oorAddrBytes = 4
)

// Events counts what happened during a run; the energy model prices
// these.
type Events struct {
	ANDs       int64
	XORs       int64
	SWWReads   int64
	SWWWrites  int64
	OoRReads   int64
	LiveWrites int64
	InputLoads int64
	TableCount int64
	InstrCount int64
}

// Traffic is the off-chip byte accounting per stream direction.
type Traffic struct {
	InstrBytes int64
	TableBytes int64
	OoRBytes   int64 // wire labels + addresses streamed in
	LiveBytes  int64 // live wires written back
	InputBytes int64 // initial input-wire load
}

// WireBytes is the wire-only traffic (Fig. 7's "Wire Traffic" bar).
func (t Traffic) WireBytes() int64 { return t.OoRBytes + t.LiveBytes + t.InputBytes }

// TotalBytes sums all streams.
func (t Traffic) TotalBytes() int64 {
	return t.InstrBytes + t.TableBytes + t.OoRBytes + t.LiveBytes + t.InputBytes
}

// Result is a simulation outcome.
type Result struct {
	HW HW

	// ComputeCycles is GE execution time with off-chip latency hidden
	// (Fig. 7 red bar).
	ComputeCycles int64
	// TrafficCycles is TotalBytes at full DRAM bandwidth expressed in
	// GE cycles (the streaming bound).
	TrafficCycles int64
	// WireTrafficCycles is the wire-only traffic time (Fig. 7 blue bar).
	WireTrafficCycles int64
	// TotalCycles = max(compute, traffic) + pipeline drain.
	TotalCycles int64

	// Stall accounting within the compute phase.
	DataStallCycles int64
	BankConflicts   int64

	// IssuedPerGE counts instructions issued by each gate engine; with
	// ComputeCycles it yields per-GE utilization.
	IssuedPerGE []int64

	Traffic Traffic
	Events  Events
}

// Utilization returns the mean fraction of compute cycles in which a GE
// issued an instruction (1.0 = every engine issued every cycle).
func (r Result) Utilization() float64 {
	if r.ComputeCycles == 0 || len(r.IssuedPerGE) == 0 {
		return 0
	}
	var total int64
	for _, n := range r.IssuedPerGE {
		total += n
	}
	return float64(total) / (float64(r.ComputeCycles) * float64(len(r.IssuedPerGE)))
}

// LoadImbalance returns max/mean instructions per GE (1.0 = perfectly
// balanced streams, the §4.1 goal of the compiler's distribution step).
func (r Result) LoadImbalance() float64 {
	if len(r.IssuedPerGE) == 0 {
		return 0
	}
	var total, max int64
	for _, n := range r.IssuedPerGE {
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(r.IssuedPerGE))
	return float64(max) / mean
}

// Time converts total cycles to wall-clock seconds at the GE clock.
func (r Result) Time() time.Duration {
	return time.Duration(float64(r.TotalCycles) / r.HW.GEClock * float64(time.Second))
}

// ComputeTime and WireTrafficTime are the Fig. 7 quantities.
func (r Result) ComputeTime() time.Duration {
	return time.Duration(float64(r.ComputeCycles) / r.HW.GEClock * float64(time.Second))
}

// WireTrafficTime is the wire-stream-only time (Fig. 7 blue bar).
func (r Result) WireTrafficTime() time.Duration {
	return time.Duration(float64(r.WireTrafficCycles) / r.HW.GEClock * float64(time.Second))
}
