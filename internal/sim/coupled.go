package sim

import (
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

// SimulateCoupled runs the finite-queue model on the program's target
// (cp.Cfg). Its GEs read the replay's per-GE records and claim the same
// SWW bank ports (see swwPorts).
func SimulateCoupled(cp *compiler.Compiled, hw HW, qc QueueConfig) (CoupledResult, error) {
	qc = qc.sanitize()
	dec, err := Simulate(cp, hw)
	if err != nil {
		return CoupledResult{}, err
	}

	p := &cp.Program
	nge := cp.Cfg.NumGEs
	bytesPerCycle := hw.DRAM.Bandwidth / hw.GEClock
	recs, off := gather(cp)
	lat := latencies[int64](cp.Cfg, hw)

	// Per-GE stream state: indices into recs.
	type geState struct {
		issue, fetch, end int // next record to issue, next to fetch, end of the run
		iq, tq, oq        int
		tablesFetched     int
		oorwPtr           int // next OoRW stream entry to fetch
	}
	ges := make([]geState, nge)
	for g := range ges {
		ges[g] = geState{issue: off[g], fetch: off[g], end: off[g+1]}
	}

	// ready[isa.OoR] stays 0: no instruction writes address 0.
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

	sww := newSWWPorts[int64](nge, hw)

	res := CoupledResult{DecoupledCycles: dec.TotalCycles}
	remaining := len(recs)

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
					if st.fetch < st.end && st.iq < qc.InstrEntries && budget >= instrBytes {
						st.fetch++
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
		for g := range ges {
			st := &ges[g]
			if st.issue >= st.end {
				continue
			}
			if st.iq == 0 {
				res.InstrStalls++
				continue
			}
			in := &recs[st.issue]

			needOoR := 0
			if in.a == isa.OoR {
				needOoR++
			}
			if in.b == isa.OoR {
				needOoR++
			}
			if needOoR > st.oq {
				res.OoRWStalls++
				continue
			}
			if in.op == isa.AND && st.tq == 0 {
				res.TableStalls++
				continue
			}
			if in.op != isa.NOP && max(ready[in.a], ready[in.b]) > cycle {
				res.DataStalls++
				continue
			}
			if in.live && len(writeQ) >= qc.WriteEntries*nge {
				res.WriteStalls++
				continue
			}
			if in.op != isa.NOP && !sww.claim(in.a, in.b, cycle) {
				continue
			}

			// Issue.
			if in.op == isa.AND {
				st.tq--
			}
			st.oq -= needOoR
			st.iq--
			st.issue++
			done := cycle + lat[in.op&3]
			ready[in.out] = done
			if in.live {
				writeQ = append(writeQ, wb{done: done, addr: in.out})
			}
			remaining--
		}
		cycle++
	}
	res.TotalCycles = cycle + int64(cp.Cfg.ANDLatency())
	return res, nil
}
