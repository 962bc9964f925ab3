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
func Simulate(cp *compiler.Compiled, hw HW) (Result, error) {
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

	res := Result{HW: hw}
	res.computePhase(cp)
	res.trafficPhase(cp)

	res.TotalCycles = res.ComputeCycles
	if res.TrafficCycles > res.TotalCycles {
		res.TotalCycles = res.TrafficCycles
	}
	// Pipeline drain for the final in-flight gates.
	res.TotalCycles += hw.ANDLatency()
	return res, nil
}

// computePhase is the cycle-level GE replay.
func (res *Result) computePhase(cp *compiler.Compiled) {
	res.computePhaseTraced(cp, nil)
}

// simInstr is one instruction as its GE's replay reads it: the operand
// addresses (isa.OoR for a queue operand), the output address and the
// opcode.
type simInstr struct {
	a, b, out uint32
	op        isa.Op
}

// geState is one gate engine's replay state.
type geState struct {
	pos, end int   // next and end index of the GE's run of records
	free     int64 // first cycle the engine can issue again
	// Pull-based OoR state (ablation): the record whose DRAM pull is in
	// flight (-1 for none) and when it lands.
	pullPos   int
	pullReady int64
}

// computePhaseTraced additionally reports each issue event (GE, cycle)
// to rec when non-nil; used by SimulateTraced.
func (res *Result) computePhaseTraced(cp *compiler.Compiled, rec func(int, int64)) {
	hw := res.HW
	p := &cp.Program
	nge := hw.NumGEs

	// Gather each GE's stream into one contiguous run of records, in one
	// sequential pass over the program (a stream lists its instructions
	// in program order). Every instruction issues exactly once, so the
	// event counts are counts over the program, taken in the same pass.
	recs := make([]simInstr, len(p.Instrs))
	ges := make([]geState, nge)
	res.IssuedPerGE = make([]int64, nge)
	off := 0
	for g := range ges {
		ges[g] = geState{pos: off, end: off, pullPos: -1}
		off += len(cp.Streams[g])
		res.IssuedPerGE[g] = int64(len(cp.Streams[g]))
	}
	ev := Events{
		SWWWrites:  int64(len(p.Instrs)),
		InstrCount: int64(len(p.Instrs)),
		InputLoads: int64(p.NumInputs),
	}
	for j := range p.Instrs {
		in := &p.Instrs[j]
		st := &ges[cp.GEOf[j]]
		recs[st.end] = simInstr{a: in.A, b: in.B, out: p.OutAddrs[j], op: in.Op}
		st.end++
		if in.Live {
			ev.LiveWrites++
		}
		switch in.Op {
		case isa.NOP:
			continue
		case isa.AND:
			ev.ANDs++
		case isa.XOR:
			ev.XORs++
		}
		for _, f := range [2]uint32{in.A, in.B} {
			if f == isa.OoR {
				ev.OoRReads++
			} else {
				ev.SWWReads++
			}
		}
	}
	ev.TableCount = ev.ANDs
	res.Events = ev

	// Completion latency after issue, by opcode.
	xorLat, andLat := int64(1), hw.ANDLatency()
	if !hw.Forwarding {
		xorLat += writeBackPenalty
		andLat += writeBackPenalty
	}

	ready := make([]int64, p.MaxAddr+1)
	nBanks := nge * hw.BanksPerGE
	// bankOf is a mask when the bank count is a power of two.
	bankMask := uint32(nBanks - 1)
	pow2 := nBanks&(nBanks-1) == 0
	bankOf := func(a uint32) int32 {
		if pow2 {
			return int32(a & bankMask)
		}
		return int32(a % uint32(nBanks))
	}
	slots := hw.bankSlots()
	bankUse := make([]int16, nBanks)
	usedBanks := make([]int32, 0, 2*nge)

	remaining := len(recs)
	cycle := int64(0)
	var dataStalls, bankConflicts int64

	for remaining > 0 {
		issued := false
		// nextEvent is the earliest cycle after this one at which a
		// blocked GE can make progress.
		nextEvent := int64(math.MaxInt64)

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
			var t0 int64
			aOoR := in.a == isa.OoR
			bOoR := in.b == isa.OoR
			if in.op != isa.NOP {
				if !aOoR {
					t0 = max(t0, ready[in.a])
				}
				if !bOoR {
					t0 = max(t0, ready[in.b])
				}
			}
			if t0 > cycle {
				dataStalls++
				nextEvent = min(nextEvent, t0)
				continue
			}
			// Pull-based OoR ablation: the first time an in-order GE
			// reaches an instruction with an OoR operand it launches a
			// DRAM access and stalls for the round trip.
			if hw.OoRPull && (aOoR || bOoR) {
				if st.pullPos != st.pos {
					st.pullPos = st.pos
					n := int64(1)
					if aOoR && bOoR {
						n = 2
					}
					st.pullReady = cycle + n*hw.DRAMLatencyCycles
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
				var ba, bb int32 = -1, -1
				needA, needB := 0, 0
				if !aOoR {
					ba = bankOf(in.a)
					needA = 1
				}
				if !bOoR {
					bb = bankOf(in.b)
					needB = 1
				}
				conflict := false
				if ba >= 0 && ba == bb {
					need := needA + needB
					cap := slots
					if need > cap {
						cap = need // idle bank may serialize the burst
					}
					if int(bankUse[ba])+need > cap {
						conflict = true
					}
				} else {
					if ba >= 0 && int(bankUse[ba])+needA > slots {
						conflict = true
					}
					if bb >= 0 && int(bankUse[bb])+needB > slots {
						conflict = true
					}
				}
				if conflict {
					bankConflicts++
					nextEvent = min(nextEvent, cycle+1)
					continue
				}
				if ba >= 0 {
					if bankUse[ba] == 0 {
						usedBanks = append(usedBanks, ba)
					}
					bankUse[ba]++
				}
				if bb >= 0 {
					if bankUse[bb] == 0 {
						usedBanks = append(usedBanks, bb)
					}
					bankUse[bb]++ // may exceed slots for a serialized burst
				}
			}

			// Issue.
			done := cycle + xorLat
			if in.op == isa.AND {
				done = cycle + andLat
			}
			ready[in.out] = done
			st.free = cycle + 1
			st.pos++
			remaining--
			if rec != nil {
				rec(g, cycle)
			}
			issued = true
		}

		if !issued && nextEvent != math.MaxInt64 {
			cycle = nextEvent
		} else {
			cycle++
		}
		for _, b := range usedBanks {
			bankUse[b] = 0
		}
		usedBanks = usedBanks[:0]
	}

	res.ComputeCycles = cycle
	res.DataStallCycles = dataStalls
	res.BankConflicts = bankConflicts
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
