package compiler

import (
	"haac/internal/circuit"
	"haac/internal/isa"
)

// The compile pipeline is flat. assemble writes the instruction list
// once, in gate order; the scheduling passes (depth-first baseline,
// level reordering) only permute one []int32 of indices into it; rename
// gathers the final program through that permutation in one pass; and
// partition writes every per-GE stream and queue into one slab each.

// aInstr is an assembled instruction still carrying circuit wire ids.
type aInstr struct {
	op   isa.Op
	a, b uint32 // circuit wire ids
	out  uint32 // circuit wire id
}

// asmState carries the program between passes.
type asmState struct {
	// instrs is the assembled instruction list, in gate order.
	instrs []aInstr
	// order is the schedule: every index of instrs exactly once, in
	// program order.
	order []int32
	// inputWires lists the circuit's input-like wires, in order, plus a
	// synthetic constant-one wire if INV lowering required one.
	inputWires []uint32
	// synthConstOne is set when a constant-one wire was appended.
	synthConstOne   bool
	numCircuitWires int
}

// assemble lowers the circuit into HAAC's two-opcode form (§3.1.3) —
// XOR and AND survive, INV becomes XOR with a constant-one wire — and
// then schedules the gate list in the depth-first order EMP-produced
// netlists have (§4.2.1: "instructions are scheduled following a
// depth-first circuit traversal, i.e., in tight producer-consumer
// relationships"). That order is the paper's Baseline; the reordering
// passes start from it.
func assemble(c *circuit.Circuit) *asmState {
	s := assembleRaw(c)
	s.depthFirst(c)
	return s
}

func assembleRaw(c *circuit.Circuit) *asmState {
	s := &asmState{numCircuitWires: c.NumWires}
	nin := c.NumInputs()
	s.inputWires = make([]uint32, nin, nin+1)
	for w := range s.inputWires {
		s.inputWires[w] = uint32(w)
	}

	constOne := uint32(0)
	haveConst := false
	if c.HasConst {
		constOne = c.Const1
		haveConst = true
	}
	s.instrs = make([]aInstr, len(c.Gates))
	for i := range c.Gates {
		g := &c.Gates[i]
		switch g.Op {
		case circuit.XOR:
			s.instrs[i] = aInstr{op: isa.XOR, a: g.A, b: g.B, out: g.C}
		case circuit.AND:
			s.instrs[i] = aInstr{op: isa.AND, a: g.A, b: g.B, out: g.C}
		case circuit.INV:
			if !haveConst {
				// Append a synthetic constant-one input wire.
				constOne = uint32(s.numCircuitWires)
				s.numCircuitWires++
				s.inputWires = append(s.inputWires, constOne)
				s.synthConstOne = true
				haveConst = true
			}
			s.instrs[i] = aInstr{op: isa.XOR, a: g.A, b: constOne, out: g.C}
		}
	}
	return s
}

// depthFirst sets the schedule to a depth-first traversal from the
// circuit outputs: each gate is emitted immediately after the subtrees
// producing its operands, yielding the tight producer-consumer chains
// characteristic of EMP netlists. Gates that feed no output (dead code
// kept for fidelity) are traversed afterwards in original order. The
// result is a valid execution order.
func (s *asmState) depthFirst(c *circuit.Circuit) {
	n := len(s.instrs)
	s.order = make([]int32, 0, n)
	if n == 0 {
		return
	}
	// Producing instruction per wire (-1 for inputs).
	prod := make([]int32, s.numCircuitWires)
	for i := range prod {
		prod[i] = -1
	}
	for i := range s.instrs {
		prod[s.instrs[i].out] = int32(i)
	}

	state := make([]uint8, n) // 0 unvisited, 1 expanded, 2 emitted
	// The stack holds at most two entries per gate on the current path,
	// so it grows with the circuit's depth, not its size.
	stack := make([]int32, 0, 1024)

	visit := func(root int32) {
		if root < 0 || state[root] == 2 {
			return
		}
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			if state[g] == 2 {
				stack = stack[:len(stack)-1]
				continue
			}
			if state[g] == 1 {
				state[g] = 2
				s.order = append(s.order, g)
				stack = stack[:len(stack)-1]
				continue
			}
			state[g] = 1
			in := &s.instrs[g]
			// Push operand producers (b first so a's subtree emits
			// first, keeping left-to-right evaluation order).
			if pb := prod[in.b]; pb >= 0 && state[pb] != 2 {
				stack = append(stack, pb)
			}
			if pa := prod[in.a]; pa >= 0 && state[pa] != 2 {
				stack = append(stack, pa)
			}
		}
	}
	for _, o := range c.Outputs {
		visit(prod[o])
	}
	for i := 0; i < n; i++ {
		if state[i] != 2 {
			visit(int32(i))
		}
	}
}

// reorder level-orders the schedule within consecutive segments of
// segSize instructions (§4.2.1); segSize >= the program length gives
// Full Reorder. Levels are numbered across the whole program with a
// running base, the way circuit.scheduleSegments numbers its steps: an
// instruction sits one level above its latest producer but never below
// the first level of its own segment, so each segment's levels lie above
// every level of the segments before it. One stable counting sort of the
// whole schedule by level is therefore a stable level sort inside every
// segment, keeping the baseline's order as the tiebreak within a level.
func (s *asmState) reorder(segSize int) {
	if segSize < 1 {
		segSize = 1
	}
	wireLvl := make([]int32, s.numCircuitWires)
	lvl := make([]int32, len(s.order)) // level per schedule position
	var base, top int32
	left := 0 // instructions left in the current segment
	for pos, i := range s.order {
		if left == 0 {
			base, left = top, segSize
		}
		left--
		in := &s.instrs[i]
		k := base
		if l := wireLvl[in.a]; l > k {
			k = l
		}
		if l := wireLvl[in.b]; l > k {
			k = l
		}
		k++
		wireLvl[in.out] = k
		lvl[pos] = k
		if k > top {
			top = k
		}
	}
	// next[k] is the write cursor of level k in the sorted schedule.
	next := make([]int32, top+1)
	for _, k := range lvl {
		next[k]++
	}
	sum := int32(0)
	for k, n := range next {
		next[k] = sum
		sum += n
	}
	out := make([]int32, len(s.order))
	for pos, k := range lvl {
		out[next[k]] = s.order[pos]
		next[k]++
	}
	s.order = out
}

// addrAllocator hands out logical wire addresses, starting at 1 and
// skipping multiples of 2^17 so no in-range wire can alias the OoR
// sentinel after 17-bit truncation (see package isa).
type addrAllocator struct{ next uint32 }

func newAddrAllocator() *addrAllocator { return &addrAllocator{next: 1} }

func (a *addrAllocator) alloc() uint32 {
	if a.next%(1<<isa.AddrBits) == 0 {
		a.next++
	}
	v := a.next
	a.next++
	return v
}

// allocRank inverts the allocator: the 0-based position of addr in its
// sequence 1, 2, 3, ..., which skips multiples of 2^17.
func allocRank(addr uint32) int {
	return int(addr) - 1 - int(addr>>isa.AddrBits)
}

// rename performs the §4.2.2 pass: every input wire and then every
// instruction output, in (post-reorder) program order, receives the next
// sequential logical address; instruction inputs are rewritten through
// the resulting map. This is what makes the SWW's contiguous window
// meaningful and lets hardware derive output addresses from the PC.
func (s *asmState) rename(c *circuit.Circuit) isa.Program {
	alloc := newAddrAllocator()
	addrOf := make([]uint32, s.numCircuitWires)

	p := isa.Program{
		NumInputs:  len(s.inputWires),
		InputAddrs: make([]uint32, len(s.inputWires)),
		Instrs:     make([]isa.Instr, len(s.order)),
		OutAddrs:   make([]uint32, len(s.order)),
	}
	for i, w := range s.inputWires {
		a := alloc.alloc()
		addrOf[w] = a
		p.InputAddrs[i] = a
	}
	for pos, i := range s.order {
		in := &s.instrs[i]
		p.Instrs[pos] = isa.Instr{
			Op: in.op,
			A:  addrOf[in.a],
			B:  addrOf[in.b],
		}
		o := alloc.alloc()
		addrOf[in.out] = o
		p.OutAddrs[pos] = o
	}
	p.OutputAddrs = make([]uint32, len(c.Outputs))
	for i, o := range c.Outputs {
		p.OutputAddrs[i] = addrOf[o]
	}
	p.MaxAddr = alloc.next - 1
	return p
}

// markOoRAndLive classifies every instruction input as in-window or
// out-of-range under the SWW sliding model (§3.1.4) and computes the
// live bits (§4.2.3): an output is live exactly when some later
// instruction reads it as OoR, or when it is a program output. The
// instruction fields of OoR inputs are replaced by the reserved address
// 0; the original addresses are kept aside to fill the OoRW queues.
//
// Renaming allocated the inputs first and then one address per
// instruction in program order, so the producer of an address is its
// allocation rank minus the input count (negative for an input).
func (cp *Compiled) markOoRAndLive(cfg Config) {
	p := &cp.Program
	n := cfg.SWWWires
	nin := p.NumInputs

	cp.oorA = make([]uint32, len(p.Instrs))
	cp.oorB = make([]uint32, len(p.Instrs))

	oorReads, liveCount := 0, 0
	markLive := func(addr uint32) {
		if pr := allocRank(addr) - nin; pr >= 0 && !p.Instrs[pr].Live {
			p.Instrs[pr].Live = true
			liveCount++
		}
	}
	for j := range p.Instrs {
		in := &p.Instrs[j]
		if in.Op == isa.NOP {
			continue
		}
		lo := WindowLo(p.OutAddrs[j], n)
		if cfg.NoSWW {
			lo = ^uint32(0) // nothing is ever resident: all reads OoR
		}
		if in.A < lo {
			cp.oorA[j] = in.A
			markLive(in.A)
			in.A = isa.OoR
			oorReads++
		}
		if in.B < lo {
			cp.oorB[j] = in.B
			markLive(in.B)
			in.B = isa.OoR
			oorReads++
		}
	}
	for _, o := range p.OutputAddrs {
		markLive(o)
	}
	cp.Traffic = Traffic{
		LiveWires: liveCount,
		OoRWires:  oorReads,
		Outputs:   len(p.Instrs),
	}
}

// partition runs the §4.1 stream-generation step: a greedy list
// scheduler walks the program in order and assigns each instruction to
// the gate engine that can issue it earliest (matching "mapping
// instructions ... to non-stalled GEs each cycle"). The resulting per-GE
// streams, table queues and OoRW queues are exactly what the hardware
// replays; the cycle simulator re-derives timing from them. The
// scheduling loop counts each GE's instructions and queue entries, so
// the streams and queues are then filled into one slab each.
func (cp *Compiled) partition() {
	p := &cp.Program
	nge := cp.Cfg.NumGEs
	andLat := int64(cp.Cfg.ANDLatency())

	ready := make([]int64, p.MaxAddr+1) // cycle the wire's value is usable
	geFree := make([]int64, nge)
	// Per GE: instructions and OoRW entries, counted and then turned
	// into the slab offsets of its stream and queue.
	nInstr := make([]int, nge)
	nOoR := make([]int, nge)
	cp.GEOf = make([]uint8, len(p.Instrs))
	cp.TablesPerGE = make([]int, nge)

	for j := range p.Instrs {
		in := &p.Instrs[j]
		oa, ob := cp.oorA[j], cp.oorB[j]
		var t0 int64
		if in.Op != isa.NOP {
			a := in.A
			if a == isa.OoR {
				a = oa
			}
			b := in.B
			if b == isa.OoR {
				b = ob
			}
			t0 = ready[a]
			if rb := ready[b]; rb > t0 {
				t0 = rb
			}
		}
		// The paper's distributor hands the next program instruction to
		// the first GE that is not stalled (§4.1); the chosen in-order
		// engine then blocks until the operands are ready. Operand
		// readiness does NOT steer the choice — that head-of-line
		// behaviour is what makes baseline (depth-first) schedules slow
		// and reordering valuable (§4.2.1).
		g, issue := 0, geFree[0]
		for k := 1; k < nge; k++ {
			if f := geFree[k]; f < issue {
				g, issue = k, f
			}
		}
		if t0 > issue {
			issue = t0 // the GE sits stalled until the operands arrive
		}
		geFree[g] = issue + 1
		lat := int64(XORLatency)
		if in.Op == isa.AND {
			lat = andLat
			cp.TablesPerGE[g]++
		}
		ready[p.OutAddrs[j]] = issue + lat
		cp.GEOf[j] = uint8(g)
		nInstr[g]++
		if oa != 0 {
			nOoR[g]++
		}
		if ob != 0 {
			nOoR[g]++
		}
	}

	streams := make([]int32, len(p.Instrs))
	oorw := make([]uint32, cp.Traffic.OoRWires)
	cp.Streams = make([][]int32, nge)
	cp.OoRW = make([][]uint32, nge)
	si, oi := 0, 0
	for g := 0; g < nge; g++ {
		cp.Streams[g] = streams[si : si+nInstr[g] : si+nInstr[g]]
		cp.OoRW[g] = oorw[oi : oi+nOoR[g] : oi+nOoR[g]]
		nInstr[g], nOoR[g] = si, oi // now each GE's write cursor
		si += len(cp.Streams[g])
		oi += len(cp.OoRW[g])
	}
	for j, g8 := range cp.GEOf {
		g := int(g8)
		streams[nInstr[g]] = int32(j)
		nInstr[g]++
		if a := cp.oorA[j]; a != 0 {
			oorw[nOoR[g]] = a
			nOoR[g]++
		}
		if b := cp.oorB[j]; b != 0 {
			oorw[nOoR[g]] = b
			nOoR[g]++
		}
	}
}
