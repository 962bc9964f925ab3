package sim

import (
	"fmt"
	"math"

	"haac/internal/compiler"
	"haac/internal/isa"
)

// Simulate runs the compiled program on the hardware configuration and
// returns timing, traffic and event counts.
//
// The compute phase replays the compiler's per-GE streams cycle by
// cycle: each GE issues in order when (a) the engine's previous issue
// has cleared (one instruction per cycle), (b) both operands are ready —
// produced values become usable at pipeline completion via the
// forwarding network (or later, if forwarding is disabled), and (c) the
// operands' SWW banks have access slots left this cycle. When no GE can
// issue, the clock skips forward to the next release time, so runtime is
// proportional to instructions, not stall cycles.
//
// The replay first copies each GE's stream into one contiguous run of
// {a, b, out, op} records. Ready times are kept per address, as int32
// when the program is short enough that no cycle can reach 2^31 (see
// readyFits32) and as int64 otherwise. A bank port's use count is
// stamped with the cycle it belongs to, so nothing is reset between
// cycles. The event counts read only the instruction list and are
// taken on a second goroutine while the replay runs.
func Simulate(cp *compiler.Compiled, hw HW) (Result, error) {
	return simulate(cp, hw, false)
}

// simulate is Simulate; wide forces int64 ready times whatever the
// program's length, so tests can run both widths.
func simulate(cp *compiler.Compiled, hw HW, wide bool) (Result, error) {
	if err := hw.Validate(); err != nil {
		return Result{}, err
	}
	if hw.NumGEs != cp.Cfg.NumGEs {
		return Result{}, fmt.Errorf("sim: program compiled for %d GEs, hardware has %d",
			cp.Cfg.NumGEs, hw.NumGEs)
	}
	if hw.SWWWires != cp.Cfg.SWWWires {
		return Result{}, fmt.Errorf("sim: program compiled for %d-wire SWW, hardware has %d",
			cp.Cfg.SWWWires, hw.SWWWires)
	}
	if hw.Garbler != cp.Cfg.GarblerPipeline {
		return Result{}, fmt.Errorf("sim: program scheduled with Garbler pipeline %v, hardware has %v",
			cp.Cfg.GarblerPipeline, hw.Garbler)
	}

	res := Result{HW: hw}
	res.computePhase(cp, wide)
	res.trafficPhase(cp)

	res.TotalCycles = res.ComputeCycles
	if res.TrafficCycles > res.TotalCycles {
		res.TotalCycles = res.TrafficCycles
	}
	// Pipeline drain for the final in-flight gates.
	res.TotalCycles += hw.ANDLatency()
	return res, nil
}

// computePhase takes the event census on a second goroutine while this
// one runs the cycle-level GE replay.
func (res *Result) computePhase(cp *compiler.Compiled, wide bool) {
	census := make(chan Events, 1)
	go func() { census <- countEvents(&cp.Program) }()
	res.IssuedPerGE = make([]int64, len(cp.InstrsPerGE))
	for g, n := range cp.InstrsPerGE {
		res.IssuedPerGE[g] = int64(n)
	}
	res.ComputeCycles, res.DataStallCycles, res.BankConflicts = replay(cp, res.HW, nil, wide)
	res.Events = <-census
}

// countEvents counts what the program's instructions do. Every
// instruction issues exactly once, so these are counts over the
// program.
func countEvents(p *isa.Program) Events {
	var byOp [4]int64
	var live, oor int64
	for j := range p.Instrs {
		in := &p.Instrs[j]
		byOp[in.Op&3]++
		if in.Live {
			live++
		}
		if in.Op != isa.NOP {
			if in.A == isa.OoR {
				oor++
			}
			if in.B == isa.OoR {
				oor++
			}
		}
	}
	n := int64(len(p.Instrs))
	return Events{
		ANDs:       byOp[isa.AND],
		XORs:       byOp[isa.XOR],
		SWWReads:   2*(n-byOp[isa.NOP]) - oor,
		SWWWrites:  n,
		OoRReads:   oor,
		LiveWrites: live,
		InputLoads: int64(p.NumInputs),
		TableCount: byOp[isa.AND],
		InstrCount: n,
	}
}

// simInstr is one instruction as its GE's replay reads it: the operand
// addresses (isa.OoR for a queue operand), the output address and the
// opcode.
type simInstr struct {
	a, b, out uint32
	op        isa.Op
}

// readyFits32 reports whether an n-instruction program's replay can
// keep its cycles in an int32. Let step be the longest completion
// latency (ANDLatency + writeBackPenalty) plus one cycle of issue, plus
// under OoRPull two DRAM round trips. A cycle with no issue jumps at
// most one step past the last issue: every operand is ready by then
// (ready times are issue cycles plus a latency, or zero), a pull
// launched once the operands are ready lands within the two round trips,
// and the first GE to pass those checks in a cycle finds its banks idle.
// So the clock, every ready time and every pull landing stay below
// (n+1)·step, which must be below 2^31.
func readyFits32(n int, hw HW) bool {
	step := hw.ANDLatency() + writeBackPenalty + 1
	if hw.OoRPull {
		step += 2 * hw.DRAMLatencyCycles
	}
	return int64(n)+1 <= math.MaxInt32/step
}

// replay dispatches the cycle loop on the ready-time width.
func replay(cp *compiler.Compiled, hw HW, rec func(int, int64), wide bool) (cycles, dataStalls, bankConflicts int64) {
	if wide || !readyFits32(len(cp.Program.Instrs), hw) {
		return replayT[int64](cp, hw, rec, math.MaxInt64)
	}
	return replayT[int32](cp, hw, rec, math.MaxInt32)
}

// geState is one gate engine's replay state.
type geState[T int32 | int64] struct {
	pos, end int // next and end index of the GE's run of records
	free     T   // first cycle the engine can issue again
	// Pull-based OoR state (ablation): the record whose DRAM pull is in
	// flight (-1 for none) and when it lands.
	pullPos   int
	pullReady T
}

// bankPort is one SWW bank's use this cycle: n counts only while cyc
// is the current cycle.
type bankPort[T int32 | int64] struct {
	cyc T
	n   int32
}

// replayT is the cycle-level GE replay with T-wide cycles; never is
// T's largest value. It reports each issue event (GE, cycle) to rec
// when non-nil; used by SimulateTraced.
func replayT[T int32 | int64](cp *compiler.Compiled, hw HW, rec func(int, int64), never T) (cycles, dataStalls, bankConflicts int64) {
	p := &cp.Program
	nge := hw.NumGEs

	// Gather each GE's stream into one contiguous run of records, in one
	// sequential pass over the program (a stream is the instructions
	// GEOf maps to the GE, in program order).
	recs := make([]simInstr, len(p.Instrs))
	ges := make([]geState[T], nge)
	off := 0
	for g := range ges {
		ges[g] = geState[T]{pos: off, end: off, pullPos: -1}
		off += cp.InstrsPerGE[g]
	}
	for j := range p.Instrs {
		in := &p.Instrs[j]
		st := &ges[cp.GEOf[j]]
		recs[st.end] = simInstr{a: in.A, b: in.B, out: p.OutAddr(j), op: in.Op}
		st.end++
	}

	// Completion latency after issue, by opcode.
	xorLat, andLat := T(1), T(hw.ANDLatency())
	if !hw.Forwarding {
		xorLat += writeBackPenalty
		andLat += writeBackPenalty
	}
	lat := [4]T{isa.NOP: xorLat, isa.XOR: xorLat, isa.AND: andLat, 3: xorLat}
	dramLat := T(hw.DRAMLatencyCycles)

	// ready[isa.OoR] stays 0: no instruction writes address 0.
	ready := make([]T, p.MaxAddr()+1)
	nBanks := nge * hw.BanksPerGE
	// bankOf is a mask when the bank count is a power of two. An OoR
	// operand takes the extra port nBanks, whose count stays 0.
	bankMask := uint32(nBanks - 1)
	pow2 := nBanks&(nBanks-1) == 0
	bankOf := func(a uint32) int32 {
		if pow2 {
			return int32(a & bankMask)
		}
		return int32(a % uint32(nBanks))
	}
	slots := int32(hw.bankSlots())
	ports := make([]bankPort[T], nBanks+1)
	oorPort := int32(nBanks)

	remaining := len(recs)
	cycle := T(0)

	for remaining > 0 {
		issued := false
		// nextEvent is the earliest cycle after this one at which a
		// blocked GE can make progress.
		nextEvent := never

		for g := range ges {
			st := &ges[g]
			if st.pos >= st.end {
				continue
			}
			if st.free > cycle {
				nextEvent = min(nextEvent, st.free)
				continue
			}
			in := &recs[st.pos]

			// Operand readiness. OoR operands come from the GE-local
			// queue: under the push model the compiler guarantees they
			// arrived long before (§3.1.4), so they are always ready.
			if in.op != isa.NOP {
				if t0 := max(ready[in.a], ready[in.b]); t0 > cycle {
					dataStalls++
					nextEvent = min(nextEvent, t0)
					continue
				}
			}
			aOoR := in.a == isa.OoR
			bOoR := in.b == isa.OoR
			// Pull-based OoR ablation: the first time an in-order GE
			// reaches an instruction with an OoR operand it launches a
			// DRAM access and stalls for the round trip.
			if hw.OoRPull && (aOoR || bOoR) {
				if st.pullPos != st.pos {
					st.pullPos = st.pos
					n := T(1)
					if aOoR && bOoR {
						n = 2
					}
					st.pullReady = cycle + n*dramLat
				}
				if st.pullReady > cycle {
					dataStalls++
					nextEvent = min(nextEvent, st.pullReady)
					continue
				}
			}
			// SWW bank ports for in-window operands. A bank serves
			// `slots` accesses per GE cycle; an instruction needing more
			// from one bank than a cycle provides may still proceed when
			// the bank is idle (the read stages serialize it), but two
			// instructions cannot oversubscribe the same bank.
			if in.op != isa.NOP {
				ba, bb := bankOf(in.a), bankOf(in.b)
				var needA, needB int32 = 1, 1
				if aOoR {
					ba, needA = oorPort, 0
				}
				if bOoR {
					bb, needB = oorPort, 0
				}
				pa, pb := &ports[ba], &ports[bb]
				ua, ub := pa.n, pb.n
				if pa.cyc != cycle {
					ua = 0
				}
				if pb.cyc != cycle {
					ub = 0
				}
				var conflict bool
				if ba == bb {
					need := needA + needB
					conflict = ua+need > max(slots, need) // idle bank may serialize the burst
				} else {
					conflict = ua+needA > slots || ub+needB > slots
				}
				if conflict {
					bankConflicts++
					nextEvent = min(nextEvent, cycle+1)
					continue
				}
				pa.n, pa.cyc = ua+needA, cycle
				// pb may be pa: read its stamp after pa's update.
				if pb.cyc != cycle {
					pb.n = 0
				}
				pb.n += needB // may exceed slots for a serialized burst
				pb.cyc = cycle
			}

			// Issue.
			ready[in.out] = cycle + lat[in.op&3]
			st.free = cycle + 1
			st.pos++
			remaining--
			if rec != nil {
				rec(g, int64(cycle))
			}
			issued = true
		}

		if !issued && nextEvent != never {
			cycle = nextEvent
		} else {
			cycle++
		}
	}
	return int64(cycle), dataStalls, bankConflicts
}

// trafficPhase does the byte-exact stream accounting and converts it to
// GE cycles at the DRAM's sustained bandwidth. It reads the program's
// AND and live counts from the events computePhase recorded.
func (res *Result) trafficPhase(cp *compiler.Compiled) {
	p := &cp.Program
	t := &res.Traffic
	t.InstrBytes = int64(len(p.Instrs)) * instrBytes
	t.TableBytes = res.Events.TableCount * tableBytes
	t.OoRBytes = int64(cp.Traffic.OoRWires) * (labelBytes + oorAddrBytes)
	t.LiveBytes = res.Events.LiveWrites * labelBytes
	t.InputBytes = int64(p.NumInputs) * labelBytes

	bytesPerCycle := res.HW.DRAM.Bandwidth / res.HW.GEClock
	res.TrafficCycles = int64(float64(t.TotalBytes()) / bytesPerCycle)
	res.WireTrafficCycles = int64(float64(t.WireBytes()) / bytesPerCycle)
}
