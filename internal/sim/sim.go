package sim

import (
	"math"

	"haac/internal/compiler"
	"haac/internal/isa"
)

// Simulate runs the compiled program on the hardware configuration and
// returns timing, traffic and event counts. The GE count and the
// Half-Gate pipeline depth are the program's (cp.Cfg).
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
// records (see gather). Ready times are kept per address, as int32
// when the program is short enough that no cycle can reach 2^31 (see
// readyFits32) and as int64 otherwise. The SWW bank ports are
// SimulateCoupled's (see swwPorts). The event counts read only the
// instruction list and are taken on a second goroutine while the replay
// runs.
func Simulate(cp *compiler.Compiled, hw HW) (Result, error) {
	return simulate(cp, hw, false)
}

// simulate is Simulate; wide forces int64 ready times whatever the
// program's length, so tests can run both widths.
func simulate(cp *compiler.Compiled, hw HW, wide bool) (Result, error) {
	if err := hw.Validate(); err != nil {
		return Result{}, err
	}

	res := Result{HW: hw}
	res.computePhase(cp, wide)
	res.trafficPhase(cp)

	res.TotalCycles = res.ComputeCycles
	if res.TrafficCycles > res.TotalCycles {
		res.TotalCycles = res.TrafficCycles
	}
	// Pipeline drain for the final in-flight gates.
	res.TotalCycles += int64(cp.Cfg.ANDLatency())
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
// addresses (isa.OoR for a queue operand), the output address, the
// opcode and the live bit, in 16 bytes.
type simInstr struct {
	a, b, out uint32
	op        isa.Op
	live      bool
}

// gather copies each GE's stream into one contiguous run of records, in
// one sequential pass over the program (a stream is the instructions
// GEOf maps to the GE, in program order). GE g's run is
// recs[off[g]:off[g+1]]. During the pass off[g+1] is GE g's next record,
// which the last of its instructions moves on to the start of g+1's run.
func gather(cp *compiler.Compiled) (recs []simInstr, off []int) {
	p := &cp.Program
	recs = make([]simInstr, len(p.Instrs))
	off = make([]int, len(cp.InstrsPerGE)+1)
	for g := 1; g < len(cp.InstrsPerGE); g++ {
		off[g+1] = off[g] + cp.InstrsPerGE[g-1]
	}
	for j, g := range cp.GEOf {
		in, r := &p.Instrs[j], &recs[off[int(g)+1]]
		r.a, r.b, r.out, r.op, r.live = in.A, in.B, p.OutAddr(j), in.Op, in.Live
		off[int(g)+1]++
	}
	return recs, off
}

// latencies is each opcode's completion latency after issue: the
// FreeXOR unit's, or the Half-Gate depth the program was scheduled for,
// plus the SWW write-back and read-back without forwarding.
func latencies[T int32 | int64](cfg compiler.Config, hw HW) [4]T {
	xorLat, andLat := T(compiler.XORLatency), T(cfg.ANDLatency())
	if !hw.Forwarding {
		xorLat += writeBackPenalty
		andLat += writeBackPenalty
	}
	return [4]T{isa.NOP: xorLat, isa.XOR: xorLat, isa.AND: andLat, 3: xorLat}
}

// bankPort is one SWW bank's use this cycle: n counts only while cyc
// is the current cycle.
type bankPort[T int32 | int64] struct {
	cyc T
	n   int32
}

// swwPorts is the banked SWW's access ports, the one bank rule of both
// replays. Address a lives in bank a mod the bank count, and a bank
// serves slots accesses per GE cycle. A port's use count is stamped
// with the cycle it belongs to, so nothing is reset between cycles. An
// OoR operand takes the extra port nBanks, whose count stays 0.
type swwPorts[T int32 | int64] struct {
	ports  []bankPort[T]
	nBanks uint32
	pow2   bool // a bank is a mask of the address
	slots  int32
}

func newSWWPorts[T int32 | int64](nge int, hw HW) swwPorts[T] {
	n := nge * hw.BanksPerGE
	return swwPorts[T]{
		ports:  make([]bankPort[T], n+1),
		nBanks: uint32(n),
		pow2:   n&(n-1) == 0,
		slots:  int32(hw.bankSlots()),
	}
}

// port returns operand a's port and the accesses a takes from it.
func (s *swwPorts[T]) port(a uint32) (int32, int32) {
	switch {
	case a == isa.OoR:
		return int32(s.nBanks), 0
	case s.pow2:
		return int32(a & (s.nBanks - 1)), 1
	}
	return int32(a % s.nBanks), 1
}

// claim charges an instruction's operands a and b to their banks at
// cycle and reports true, or charges nothing and reports false on a
// bank conflict. An instruction needing more from one bank than a
// cycle provides may still proceed when the bank is idle (the read
// stages serialize it), but two instructions cannot oversubscribe the
// same bank.
func (s *swwPorts[T]) claim(a, b uint32, cycle T) bool {
	ba, needA := s.port(a)
	bb, needB := s.port(b)
	pa, pb := &s.ports[ba], &s.ports[bb]
	ua, ub := pa.n, pb.n
	if pa.cyc != cycle {
		ua = 0
	}
	if pb.cyc != cycle {
		ub = 0
	}
	if ba == bb {
		if need := needA + needB; ua+need > max(s.slots, need) {
			return false
		}
	} else if ua+needA > s.slots || ub+needB > s.slots {
		return false
	}
	pa.n, pa.cyc = ua+needA, cycle
	// pb may be pa: read its stamp after pa's update.
	if pb.cyc != cycle {
		pb.n = 0
	}
	pb.n += needB // may exceed slots for a serialized burst
	pb.cyc = cycle
	return true
}

// readyFits32 reports whether an n-instruction program's replay can
// keep its cycles in an int32. Let step be the longest completion
// latency (the program's AND latency + writeBackPenalty) plus one cycle
// of issue, plus under OoRPull two DRAM round trips. A cycle with no
// issue jumps at most one step past the last issue: every operand is
// ready by then (ready times are issue cycles plus a latency, or zero),
// a pull launched once the operands are ready lands within the two
// round trips, and the first GE to pass those checks in a cycle finds
// its banks idle. So the clock, every ready time and every pull landing
// stay below (n+1)·step, which must be below 2^31.
func readyFits32(n int, cfg compiler.Config, hw HW) bool {
	step := int64(cfg.ANDLatency()) + writeBackPenalty + 1
	if hw.OoRPull {
		step += 2 * hw.DRAMLatencyCycles
	}
	return int64(n)+1 <= math.MaxInt32/step
}

// replay dispatches the cycle loop on the ready-time width.
func replay(cp *compiler.Compiled, hw HW, rec func(int, int64), wide bool) (cycles, dataStalls, bankConflicts int64) {
	if wide || !readyFits32(len(cp.Program.Instrs), cp.Cfg, hw) {
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

// replayT is the cycle-level GE replay with T-wide cycles; never is
// T's largest value. It reports each issue event (GE, cycle) to rec
// when non-nil; used by SimulateTraced.
func replayT[T int32 | int64](cp *compiler.Compiled, hw HW, rec func(int, int64), never T) (cycles, dataStalls, bankConflicts int64) {
	recs, off := gather(cp)
	ges := make([]geState[T], len(off)-1)
	for g := range ges {
		ges[g] = geState[T]{pos: off[g], end: off[g+1], pullPos: -1}
	}
	lat := latencies[T](cp.Cfg, hw)
	dramLat := T(hw.DRAMLatencyCycles)
	// ready[isa.OoR] stays 0: no instruction writes address 0.
	ready := make([]T, cp.Program.MaxAddr()+1)
	sww := newSWWPorts[T](len(ges), hw)

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
			// Pull-based OoR ablation: the first time an in-order GE
			// reaches an instruction with an OoR operand it launches a
			// DRAM access and stalls for the round trip.
			if aOoR, bOoR := in.a == isa.OoR, in.b == isa.OoR; hw.OoRPull && (aOoR || bOoR) {
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
			if in.op != isa.NOP && !sww.claim(in.a, in.b, cycle) {
				bankConflicts++
				nextEvent = min(nextEvent, cycle+1)
				continue
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
