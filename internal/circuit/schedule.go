package circuit

// The schedule of a Plan: the gate list cut into contiguous gate-order
// segments and level-ordered inside each one — the software twin of the
// HAAC compiler's segment reordering (§4.2.1, compiler.SegmentReorder),
// which trades instruction-level parallelism against wire locality the
// same way. Both take their levels from the one pass in level.go; the
// plan cuts after every segmentANDs-th AND gate of gate order, the
// compiler every so many instructions of its depth-first order. A step
// is one level: every producer of a step's gates ran in an earlier step
// (or an earlier segment), so the gates of a step are independent and
// can be garbled or evaluated in any order, or several at once. Steps
// run in order; segments never interleave.
//
// Tables keep their gate-order stream positions, so a segment's tables
// are one contiguous run of the stream: the garbler can emit a segment
// the moment its last step finishes, and the evaluator never needs a
// table from beyond the segment it is executing. Garbling, transfer and
// evaluation of a large circuit therefore overlap segment by segment,
// and the labels live at any time are those of about one segment.
//
// Per-step data is flat — the gates themselves in execution order and
// one small record per step — because deep circuits have millions of
// steps.

// segmentANDs is the segment size in AND gates: a segment closes after
// this many tables. Smaller segments keep fewer labels live and let the
// evaluator start sooner; larger ones give wider steps (more independent
// gates per step for the step kernels, which keep eight or four AND
// gates in flight). A sweep
// over the VIP suite put the knee at a few thousand; it is deliberately
// not configurable.
const segmentANDs = 4096

// step is one schedule step, as cumulative ends: its gates are
// Plan.Gates[prev.gates:gates], the last ands-prev.ands of them AND
// gates whose tables are Plan.Tables[prev.ands:ands], prev being the
// step before it.
type step struct {
	gates, ands int32
	// emitReady and needTables are the table-stream watermarks reported
	// by Plan.EmitReady and Plan.NeedTables.
	emitReady, needTables int32
}

// schedule is the result of the scheduling pass over a circuit.
type schedule struct {
	// order lists every gate index exactly once, in execution order:
	// step after step, and inside a step the XOR/INV gates in gate order
	// followed by the AND gates in gate order.
	order []int32
	// tables[i] is the table-stream index of the i-th AND gate of order.
	tables []int32
	steps  []step
	// lastUse[w] is the 1-based step of the last gate reading wire w, 0
	// if nothing reads it.
	lastUse []int32
}

// scheduleSegments cuts c's gate list after every segANDs-th AND gate
// and level-orders each segment: the step of a gate is its level under
// Levels with those cuts. c must be valid. It is O(gates).
func scheduleSegments(c *Circuit, segANDs int) *schedule {
	// Gate ops are too irregular for the branch predictor, so each AND
	// test below is a bare increment the compiler turns into a
	// conditional move; the cut loop stops at the last cut.
	numAND := 0
	for i := range c.Gates {
		if c.Gates[i].Op == AND {
			numAND++
		}
	}
	cuts := make([]int32, 0, numAND/segANDs)
	for i, ands := 0, 0; len(cuts) < cap(cuts); i++ {
		if c.Gates[i].Op == AND {
			ands++
		}
		if ands == (len(cuts)+1)*segANDs {
			cuts = append(cuts, int32(i)+1)
		}
	}
	lvl, top := Levels(c, nil, cuts)
	s := &schedule{
		order:   make([]int32, len(c.Gates)),
		tables:  make([]int32, numAND),
		lastUse: make([]int32, c.NumWires()),
	}

	// Counting sort of the gates by step, free gates ahead of AND gates,
	// gate order preserved inside each run; the sweep that sizes the
	// steps also takes each wire's last use. nextFree and nextAND are
	// each step's write cursors into order. The AND gates of step k fill
	// the tail of its gates and the tail of its tables, so an AND gate at
	// order[pos] has its table index at tables[pos-(gates-ands)], gates
	// and ands being the step's cumulative ends.
	steps := make([]step, top)
	for i := range c.Gates {
		g, k := &c.Gates[i], lvl[i]
		s.lastUse[g.A] = max(s.lastUse[g.A], k)
		if g.Op != INV {
			s.lastUse[g.B] = max(s.lastUse[g.B], k)
		}
		st := &steps[k-1]
		st.gates++
		if g.Op == AND {
			st.ands++
		}
	}
	nextFree := make([]int32, top)
	nextAND := make([]int32, top)
	var gates, ands int32
	for k := range steps {
		nextFree[k] = gates
		gates += steps[k].gates
		ands += steps[k].ands
		nextAND[k] = gates - steps[k].ands
		steps[k].gates, steps[k].ands = gates, ands
	}
	table := int32(0)
	for i := range c.Gates {
		k := lvl[i] - 1
		if c.Gates[i].Op == AND {
			pos := nextAND[k]
			nextAND[k]++
			s.order[pos] = int32(i)
			s.tables[pos-(steps[k].gates-steps[k].ands)] = table
			table++
		} else {
			s.order[nextFree[k]] = int32(i)
			nextFree[k]++
		}
	}

	// Table-stream watermarks. emitReady: the ready prefix after step k
	// ends at the first table whose gate runs later; the running maximum
	// of the tables' steps is nondecreasing, so one cursor over the gate
	// list serves every step. needTables: AND runs are in gate order, so
	// a step's highest stream index belongs to its last AND gate.
	cursor, ready, prefixMax, need, prevANDs := 0, int32(0), int32(0), int32(0), int32(0)
	for k := range steps {
		for ; cursor < len(c.Gates); cursor++ {
			if c.Gates[cursor].Op != AND {
				continue
			}
			prefixMax = max(prefixMax, lvl[cursor])
			if prefixMax > int32(k)+1 {
				break
			}
			ready++
		}
		st := &steps[k]
		st.emitReady = ready
		if st.ands > prevANDs {
			if n := s.tables[st.ands-1] + 1; n > need {
				need = n
			}
		}
		st.needTables = need
		prevANDs = st.ands
	}
	s.steps = steps
	return s
}

// NumSteps returns the number of steps in the plan's schedule.
func (p *Plan) NumSteps() int { return len(p.steps) }

// Step returns step k: its XOR/INV gates and its AND gates, each run in
// gate order, and the table-stream index of each AND gate. The slices
// alias the plan and must not be modified.
func (p *Plan) Step(k int) (free, and []PlanGate, tables []int32) {
	var prev step
	if k > 0 {
		prev = p.steps[k-1]
	}
	st := &p.steps[k]
	firstAND := st.gates - (st.ands - prev.ands)
	return p.Gates[prev.gates:firstAND], p.Gates[firstAND:st.gates], p.Tables[prev.ands:st.ands]
}

// EmitReady returns the length of the longest table-stream prefix that
// is fully garbled once steps 0..k are complete; a garbler can flush
// exactly this prefix after finishing step k. At the last step of a
// segment it is the end of that segment's tables.
func (p *Plan) EmitReady(k int) int { return int(p.steps[k].emitReady) }

// NeedTables returns the number of leading stream tables the evaluator
// must hold before step k can be evaluated: 1 + the largest stream index
// of any AND gate in steps 0..k. It never exceeds the end of the tables
// of the segment step k belongs to.
func (p *Plan) NeedTables(k int) int { return int(p.steps[k].needTables) }
