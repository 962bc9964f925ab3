package compiler

import (
	"math/bits"
	"slices"

	"haac/internal/circuit"
	"haac/internal/isa"
)

// The compile pipeline is flat and reads the circuit's gates in place:
// lower maps a gate onto the two-opcode ISA as it is read, and the
// scheduling passes (depth-first baseline, level reordering) only
// permute one []int32 of gate indices. The back end then reads the
// final schedule in two lanes that run concurrently and write disjoint
// fields of Compiled: renameLane gathers the program through the
// permutation and computes OoR reads and live bits in the same sweep,
// while scheduleLane assigns each instruction a GE (geMinSet's pick) and
// counts each GE's instructions and tables. After the join, fillOoRW
// writes the per-GE OoRW queues into one slab.

// asmState carries the schedule between passes.
type asmState struct {
	// order is the schedule: every gate index exactly once, in program
	// order.
	order []int32
	// inputWires lists the circuit's input-like wires, in order, plus a
	// synthetic constant-one wire, numbered after the gates' wires, if
	// INV lowering required one; with the gates they number
	// len(inputWires)+len(order) wires.
	inputWires []uint32
	// constOne is the wire INV gates are XORed with; synthConstOne is set
	// when it was appended to the circuit's wires.
	constOne      uint32
	synthConstOne bool
}

// assemble prepares HAAC's two-opcode form (§3.1.3) — XOR and AND
// survive, INV becomes XOR with a constant-one wire, appended as the
// last input if the circuit has none — and then schedules the gate list
// in the depth-first order EMP-produced netlists have (§4.2.1:
// "instructions are scheduled following a depth-first circuit
// traversal, i.e., in tight producer-consumer relationships"). That
// order is the paper's Baseline; the reordering passes start from it.
func assemble(c *circuit.Circuit) *asmState {
	s := &asmState{constOne: c.Const1}
	nin := c.NumInputs()
	s.inputWires = make([]uint32, nin, nin+1)
	for w := range s.inputWires {
		s.inputWires[w] = uint32(w)
	}
	if !c.HasConst && slices.ContainsFunc(c.Gates, func(g circuit.Gate) bool { return g.Op == circuit.INV }) {
		s.constOne = uint32(c.NumWires())
		s.inputWires = append(s.inputWires, s.constOne)
		s.synthConstOne = true
	}
	s.depthFirst(c)
	return s
}

// lower returns the instruction gate g becomes: its opcode and the
// circuit wires it reads. INV's B field is never read.
func (s *asmState) lower(g *circuit.Gate) (op isa.Op, a, b uint32) {
	switch g.Op {
	case circuit.AND:
		return isa.AND, g.A, g.B
	case circuit.INV:
		return isa.XOR, g.A, s.constOne
	}
	return isa.XOR, g.A, g.B
}

// depthFirst sets the schedule to a depth-first traversal from the
// circuit outputs: each gate is emitted immediately after the subtrees
// producing its operands, yielding the tight producer-consumer chains
// characteristic of EMP netlists. Gates that feed no output (dead code
// kept for fidelity) are traversed afterwards in original order. The
// result is a valid execution order.
func (s *asmState) depthFirst(c *circuit.Circuit) {
	n := len(c.Gates)
	s.order = make([]int32, 0, n)
	if n == 0 {
		return
	}
	// The producer of wire w is gate w-nin; inputs and a synthetic
	// constant-one wire (numbered after every gate) have none.
	nin := int32(c.NumInputs())
	prod := func(w uint32) int32 {
		if p := int32(w) - nin; p >= 0 && p < int32(n) {
			return p
		}
		return -1
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
			_, a, b := s.lower(&c.Gates[g])
			// Push operand producers (b first so a's subtree emits
			// first, keeping left-to-right evaluation order).
			if pb := prod(b); pb >= 0 && state[pb] != 2 {
				stack = append(stack, pb)
			}
			if pa := prod(a); pa >= 0 && state[pa] != 2 {
				stack = append(stack, pa)
			}
		}
	}
	for _, o := range c.Outputs {
		visit(prod(o))
	}
	for i := 0; i < n; i++ {
		if state[i] != 2 {
			visit(int32(i))
		}
	}
}

// reorder level-orders the schedule within consecutive segments of
// segSize instructions (§4.2.1); segSize >= the program length cuts
// nowhere, which is Full Reorder. The
// levels come from circuit.Levels over the schedule, the pass the plan's
// steps come from: an instruction sits one level above its latest
// producer but never below the first level of its own segment, so each
// segment's levels lie above every level of the segments before it. One
// stable counting sort of the whole schedule by level is therefore a
// stable level sort inside every segment, keeping the baseline's order
// as the tiebreak within a level.
func (s *asmState) reorder(c *circuit.Circuit, segSize int) {
	var cuts []int32
	if len(s.order) > segSize {
		cuts = make([]int32, (len(s.order)-1)/segSize)
		for j := range cuts {
			cuts[j] = int32((j + 1) * segSize)
		}
	}
	lvl, top := circuit.Levels(c, s.order, cuts)
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

// renameLane runs renaming (§4.2.2) and ESW (§4.2.3) as one sweep over
// the schedule. Every input wire and then every instruction output, in
// program order, receives the next sequential logical address, and
// instruction inputs are rewritten through the resulting map; this is
// what makes the SWW's contiguous window meaningful and lets hardware
// derive output addresses from the PC. In the same step each input is
// classified as in-window or out-of-range under the SWW sliding model
// (§3.1.4): an OoR input's field becomes the reserved address 0, its
// address is kept aside in oorA/oorB to fill the OoRW queues, and its
// producer is marked live. An output is live exactly when some later
// instruction reads it as OoR, or when it is a program output.
//
// Addresses follow the sequence isa.NextAddr walks: inputs take the
// first ones and then each instruction one, so the producer of an
// address is its isa.Rank minus the input count (negative for an input).
func (s *asmState) renameLane(c *circuit.Circuit, cp *Compiled) {
	n, noSWW := cp.Cfg.SWWWires, cp.Cfg.NoSWW
	nin := len(s.inputWires)
	addrOf := make([]uint32, nin+len(s.order))
	p := &cp.Program
	*p = isa.Program{
		NumInputs:   nin,
		Instrs:      make([]isa.Instr, len(s.order)),
		OutputAddrs: make([]uint32, len(c.Outputs)),
	}
	cp.oorA = make([]uint32, len(s.order))
	cp.oorB = make([]uint32, len(s.order))
	o := isa.OoR // the last address handed out
	for _, w := range s.inputWires {
		o = isa.NextAddr(o)
		addrOf[w] = o
	}

	oorReads, liveCount := 0, 0
	markLive := func(addr uint32) {
		if pr := isa.Rank(addr) - nin; pr >= 0 && !p.Instrs[pr].Live {
			p.Instrs[pr].Live = true
			liveCount++
		}
	}
	cin := int32(c.NumInputs())
	for pos, i := range s.order {
		op, a, b := s.lower(&c.Gates[i])
		a, b = addrOf[a], addrOf[b]
		o = isa.NextAddr(o)
		addrOf[cin+i] = o
		lo := ^uint32(0) // without an SWW nothing is resident: all reads OoR
		if !noSWW {
			lo = WindowLo(o, n)
		}
		if a < lo {
			cp.oorA[pos] = a
			markLive(a)
			a = isa.OoR
			oorReads++
		}
		if b < lo {
			cp.oorB[pos] = b
			markLive(b)
			b = isa.OoR
			oorReads++
		}
		p.Instrs[pos] = isa.Instr{Op: op, A: a, B: b}
	}
	for i, w := range c.Outputs {
		p.OutputAddrs[i] = addrOf[w]
		markLive(addrOf[w])
	}
	cp.Traffic = Traffic{
		LiveWires: liveCount,
		OoRWires:  oorReads,
		Outputs:   len(p.Instrs),
	}
}

// scheduleLane runs the §4.1 stream-generation step: a greedy list
// scheduler walks the program in order and hands each instruction to
// the first GE that is not stalled — the lowest-index GE with the least
// free time (see geMinSet) — and the chosen in-order engine then blocks
// until the operands are ready. Operand readiness does NOT steer the
// choice: that head-of-line behaviour is what makes baseline
// (depth-first) schedules slow and reordering valuable (§4.2.1).
//
// The lane needs nothing from renaming. It keeps operand readiness per
// circuit wire id, and renaming is a bijection on defined wires, so
// every ready time is the one an address-indexed table would hold. It
// records each instruction's GE and counts each GE's instructions and
// tables; a GE's stream is the instructions GEOf maps to it, in program
// order.
func (s *asmState) scheduleLane(c *circuit.Circuit, cp *Compiled) {
	nge := cp.Cfg.NumGEs
	andLat := int64(cp.Cfg.ANDLatency())
	ready := make([]int64, len(s.inputWires)+len(s.order)) // cycle the wire's value is usable
	nin := int32(c.NumInputs())
	ges := newGEMinSet(nge)
	cp.GEOf = make([]uint8, len(s.order))
	cp.InstrsPerGE = make([]int, nge)
	cp.TablesPerGE = make([]int, nge)
	for pos, i := range s.order {
		op, a, b := s.lower(&c.Gates[i])
		g := ges.pick()
		// The GE sits stalled until the operands arrive.
		issue := max(ges.min, ready[a], ready[b])
		ges.take(g, issue+1)
		lat := int64(XORLatency)
		if op == isa.AND {
			lat = andLat
			cp.TablesPerGE[g]++
		}
		ready[nin+i] = issue + lat
		cp.GEOf[pos] = uint8(g)
		cp.InstrsPerGE[g]++
	}
}

// geMinSet is the list scheduler's GE pick. It keeps the GEs whose free
// time equals the current minimum as a bitset and hands them out lowest
// index first. Scheduling never lowers a free time and always raises the
// chosen GE's above the minimum, so the set stays exactly the GEs at the
// minimum until it empties; only then are the free times rescanned.
// With ready operands every GE is handed out once per rescan, so a pick
// costs amortised O(1) rather than a scan of every GE.
type geMinSet struct {
	free []int64             // cycle at which each GE can next issue
	min  int64               // least free time
	set  [MaxGEs / 64]uint64 // GEs whose free time was min at the rescan
	cur  uint64              // set's word being handed out, less the GEs taken
	base int                 // GE index of cur's bit 0
}

// newGEMinSet returns the pick for nge GEs, all free at cycle 0.
func newGEMinSet(nge int) *geMinSet {
	m := &geMinSet{free: make([]int64, nge)}
	m.refill()
	return m
}

// pick returns the lowest-index GE with the least free time.
func (m *geMinSet) pick() int {
	return m.base + bits.TrailingZeros64(m.cur)
}

// take sets the free time of the GE pick returned to t, which must
// exceed min.
func (m *geMinSet) take(g int, t int64) {
	m.free[g] = t
	if m.cur &= m.cur - 1; m.cur == 0 {
		m.refill()
	}
}

// refill loads the set's next non-empty word into cur, rescanning the
// free times once every word has been handed out.
func (m *geMinSet) refill() {
	for w := m.base/64 + 1; w < len(m.set); w++ {
		if x := m.set[w]; x != 0 {
			m.cur, m.base = x, w*64
			return
		}
	}
	lo := slices.Min(m.free)
	m.min = lo
	// Build each word in a register, top word first, so cur ends on the
	// lowest non-empty one. Branch-free: which GEs tie varies pick to
	// pick.
	for w := (len(m.free) - 1) / 64; w >= 0; w-- {
		var x uint64
		for g, f := range m.free[w*64 : min(w*64+64, len(m.free))] {
			var at uint64
			if f == lo {
				at = 1
			}
			x |= at << g
		}
		m.set[w] = x
		if x != 0 {
			m.cur, m.base = x, w*64
		}
	}
}

// fillOoRW writes each GE's OoRW queue — the addresses its OoR operands
// read, in stream order — into one slab: it counts each GE's entries,
// turns the counts into slab offsets, then fills.
func (cp *Compiled) fillOoRW() {
	oorA, oorB := cp.oorA[:len(cp.GEOf)], cp.oorB[:len(cp.GEOf)]
	next := make([]int, cp.Cfg.NumGEs)
	for j, g := range cp.GEOf {
		if oorA[j] != 0 {
			next[g]++
		}
		if oorB[j] != 0 {
			next[g]++
		}
	}
	oorw := make([]uint32, cp.Traffic.OoRWires)
	cp.OoRW = make([][]uint32, len(next))
	off := 0
	for g, n := range next {
		cp.OoRW[g] = oorw[off : off+n : off+n]
		next[g] = off // now the GE's write cursor
		off += n
	}
	for j, g := range cp.GEOf {
		if a := oorA[j]; a != 0 {
			oorw[next[g]] = a
			next[g]++
		}
		if b := oorB[j]; b != 0 {
			oorw[next[g]] = b
			next[g]++
		}
	}
}
