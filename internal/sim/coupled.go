package sim

import (
	"fmt"

	"haac/internal/compiler"
	"haac/internal/isa"
)

// Queue-coupled simulation. The headline simulator follows the paper's
// decoupling argument (§3.1.4) and reports max(compute, traffic). This
// file provides the skeptic's counter-model: finite per-GE instruction,
// table and OoRW queues, a bounded write buffer, and a DRAM streamer
// that moves a fixed byte budget per cycle, round-robin across all
// streams. GEs stall when a needed queue is empty (or the write buffer
// is full), and an out-of-range wire can only be fetched after its
// producer's value has actually drained to DRAM.
//
// If the co-design argument holds, the coupled model's runtime should
// sit close to the decoupled bound; the `coupling` bench experiment
// measures exactly that.

// QueueConfig sizes the on-chip stream buffers (entries per GE). The
// paper's design uses a 64 KB SRAM across all queues (§6.4); the
// default splits it as 2 KB instruction + 1 KB table + 1 KB OoRW per GE
// at 16 GEs.
type QueueConfig struct {
	InstrEntries int // 8 B each
	TableEntries int // 32 B each
	OoRWEntries  int // 16 B each
	WriteEntries int // pending live write-backs (16 B each)
}

// DefaultQueues matches the paper's 64 KB queue budget at 16 GEs.
func DefaultQueues() QueueConfig {
	return QueueConfig{
		InstrEntries: 256,
		TableEntries: 32,
		OoRWEntries:  64,
		WriteEntries: 64,
	}
}

// sanitize raises capacities to the minimums required for forward
// progress: an instruction can need two OoRW entries at once, and every
// queue must hold at least one entry.
func (qc QueueConfig) sanitize() QueueConfig {
	if qc.InstrEntries < 1 {
		qc.InstrEntries = 1
	}
	if qc.TableEntries < 1 {
		qc.TableEntries = 1
	}
	if qc.OoRWEntries < 2 {
		qc.OoRWEntries = 2
	}
	if qc.WriteEntries < 1 {
		qc.WriteEntries = 1
	}
	return qc
}

// CoupledResult reports the coupled-model outcome.
type CoupledResult struct {
	TotalCycles int64
	// Stall cycles by starving resource, summed over GEs.
	InstrStalls, TableStalls, OoRWStalls, WriteStalls, DataStalls int64
	// DecoupledCycles is the headline model's bound for comparison.
	DecoupledCycles int64
}

// CouplingError returns how far the decoupled bound sits below the
// coupled model, as a fraction (0.08 = coupled is 8% slower).
func (r CoupledResult) CouplingError() float64 {
	if r.DecoupledCycles == 0 {
		return 0
	}
	return float64(r.TotalCycles-r.DecoupledCycles) / float64(r.DecoupledCycles)
}

// SimulateCoupled runs the finite-queue model.
func SimulateCoupled(cp *compiler.Compiled, hw HW, qc QueueConfig) (CoupledResult, error) {
	if err := hw.Validate(); err != nil {
		return CoupledResult{}, err
	}
	if hw.NumGEs != cp.Cfg.NumGEs || hw.SWWWires != cp.Cfg.SWWWires {
		return CoupledResult{}, fmt.Errorf("sim: program/hardware mismatch")
	}
	qc = qc.sanitize()
	dec, err := Simulate(cp, hw)
	if err != nil {
		return CoupledResult{}, err
	}

	p := &cp.Program
	nge := hw.NumGEs
	andLat := hw.ANDLatency()
	bytesPerCycle := hw.DRAM.Bandwidth / hw.GEClock

	// Each GE's instruction stream: the indices GEOf maps to it, in
	// program order.
	streams := make([][]int32, nge)
	for g := range streams {
		streams[g] = make([]int32, 0, cp.InstrsPerGE[g])
	}
	for j, g := range cp.GEOf {
		streams[g] = append(streams[g], int32(j))
	}

	// Per-GE stream state.
	type geState struct {
		issuePtr      int // next stream index to issue
		fetchPtr      int // next stream index whose instruction is being fetched
		iq, tq, oq    int
		tablesFetched int
		oorwPtr       int // next OoRW stream entry to fetch
	}
	ges := make([]geState, nge)

	ready := make([]int64, p.MaxAddr()+1)

	// DRAM availability of wires for OoR fetches: inputs are resident
	// from the start; live outputs become fetchable once drained.
	inDRAM := make([]bool, p.MaxAddr()+1)
	for i := 0; i < p.NumInputs; i++ {
		inDRAM[isa.Addr(i)] = true
	}

	// Write buffer: FIFO of (cycle the value completes, address).
	type wb struct {
		done int64
		addr uint32
	}
	var writeQ []wb

	// Bank model (same as the decoupled compute phase).
	nBanks := nge * hw.BanksPerGE
	slots := hw.bankSlots()
	bankUse := make([]int16, nBanks)
	var usedBanks []int32

	res := CoupledResult{DecoupledCycles: dec.TotalCycles}
	remaining := len(p.Instrs)

	// Startup: stream the input wires in before execution (the compiler
	// orchestrates this preload, §3.3).
	cycle := int64(float64(p.NumInputs*labelBytes)/bytesPerCycle) + 1

	budget := 0.0
	rr := 0 // round-robin pointer over DRAM channels
	channels := 3*nge + 1

	for remaining > 0 || len(writeQ) > 0 {
		// --- DRAM side: spend this cycle's byte budget.
		budget += bytesPerCycle
		for spent := true; spent; {
			spent = false
			for i := 0; i < channels; i++ {
				ch := (rr + i) % channels
				if ch == 3*nge { // write-back channel
					if len(writeQ) > 0 && writeQ[0].done <= cycle && budget >= labelBytes {
						inDRAM[writeQ[0].addr] = true
						writeQ = writeQ[1:]
						budget -= labelBytes
						spent = true
						rr = (ch + 1) % channels
					}
					continue
				}
				g := ch / 3
				st := &ges[g]
				switch ch % 3 {
				case 0: // instruction fetch
					if st.fetchPtr < len(streams[g]) && st.iq < qc.InstrEntries && budget >= instrBytes {
						st.fetchPtr++
						st.iq++
						budget -= instrBytes
						spent = true
						rr = (ch + 1) % channels
					}
				case 1: // table fetch
					if st.tablesFetched < cp.TablesPerGE[g] && st.tq < qc.TableEntries && budget >= tableBytes {
						st.tablesFetched++
						st.tq++
						budget -= tableBytes
						spent = true
						rr = (ch + 1) % channels
					}
				case 2: // OoR wire fetch (gated on residency)
					if st.oorwPtr < len(cp.OoRW[g]) && st.oq < qc.OoRWEntries &&
						budget >= labelBytes+oorAddrBytes &&
						inDRAM[cp.OoRW[g][st.oorwPtr]] {
						st.oorwPtr++
						st.oq++
						budget -= labelBytes + oorAddrBytes
						spent = true
						rr = (ch + 1) % channels
					}
				}
			}
		}
		if budget > 4*bytesPerCycle {
			budget = 4 * bytesPerCycle // cap accumulation: idle cycles don't bank unlimited bandwidth
		}

		// --- GE side: try to issue on every engine.
		for g := 0; g < nge; g++ {
			st := &ges[g]
			if st.issuePtr >= len(streams[g]) {
				continue
			}
			if st.iq == 0 {
				res.InstrStalls++
				continue
			}
			j := streams[g][st.issuePtr]
			in := &p.Instrs[j]

			needOoR := 0
			if in.A == isa.OoR {
				needOoR++
			}
			if in.B == isa.OoR {
				needOoR++
			}
			if needOoR > st.oq {
				res.OoRWStalls++
				continue
			}
			if in.Op == isa.AND && st.tq == 0 {
				res.TableStalls++
				continue
			}
			var t0 int64
			if in.A != isa.OoR {
				if r := ready[in.A]; r > t0 {
					t0 = r
				}
			}
			if in.B != isa.OoR {
				if r := ready[in.B]; r > t0 {
					t0 = r
				}
			}
			if t0 > cycle {
				res.DataStalls++
				continue
			}
			if in.Live && len(writeQ) >= qc.WriteEntries*nge {
				res.WriteStalls++
				continue
			}
			// Bank ports.
			conflict := false
			if in.A != isa.OoR {
				b := int32(in.A) % int32(nBanks)
				if int(bankUse[b]) >= slots {
					conflict = true
				} else {
					if bankUse[b] == 0 {
						usedBanks = append(usedBanks, b)
					}
					bankUse[b]++
				}
			}
			if !conflict && in.B != isa.OoR {
				b := int32(in.B) % int32(nBanks)
				if int(bankUse[b]) >= slots && slots > 1 {
					conflict = true
				} else {
					if bankUse[b] == 0 {
						usedBanks = append(usedBanks, b)
					}
					bankUse[b]++
				}
			}
			if conflict {
				continue
			}

			// Issue.
			lat := int64(XORLatencyCycles)
			if in.Op == isa.AND {
				lat = andLat
				st.tq--
			}
			st.oq -= needOoR
			st.iq--
			st.issuePtr++
			done := cycle + lat
			if !hw.Forwarding {
				done += writeBackPenalty
			}
			o := p.OutAddr(int(j))
			ready[o] = done
			if in.Live {
				writeQ = append(writeQ, wb{done: done, addr: o})
			}
			remaining--
		}
		for _, b := range usedBanks {
			bankUse[b] = 0
		}
		usedBanks = usedBanks[:0]
		cycle++
	}
	res.TotalCycles = cycle + andLat
	return res, nil
}

// XORLatencyCycles is the FreeXOR unit latency (§3.2).
const XORLatencyCycles = 1
