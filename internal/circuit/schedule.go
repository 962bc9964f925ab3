package circuit

import "fmt"

// The schedule of a Plan: the gate list cut into contiguous gate-order
// segments and level-ordered inside each one — the software twin of the
// HAAC compiler's segment reordering (§4.2.1, compiler.SegmentReorder),
// which trades instruction-level parallelism against wire locality the
// same way. A step is one dependence level of one segment: every
// producer of a step's gates ran in an earlier step (or an earlier
// segment), so the gates of a step are independent and can be garbled or
// evaluated in any order, or by any number of workers at once. Steps run
// in order; segments never interleave.
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
// gates per step for the two-gate kernels and the worker pool). A sweep
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
// and level-orders each segment. c must be valid. It is O(gates).
func scheduleSegments(c *Circuit, segANDs int) (*schedule, error) {
	// Step numbering and last-use liveness in one sweep. wireStep[w] is
	// the 1-based step that writes wire w, 0 for inputs. A gate runs one
	// step after its latest producer, but never before the first step of
	// its own segment: base is the last step of the segments already
	// closed, so producers from earlier segments all count as "done".
	s := &schedule{
		order:   make([]int32, len(c.Gates)),
		lastUse: make([]int32, c.NumWires),
	}
	wireStep, lastUse := make([]int32, c.NumWires), s.lastUse
	var base, top int32
	segAND, numAND := 0, 0
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Op != XOR && g.Op != AND && g.Op != INV {
			return nil, fmt.Errorf("circuit: gate %d has unknown op %d", i, g.Op)
		}
		k := base
		if ws := wireStep[g.A]; ws > k {
			k = ws
		}
		if g.Op != INV {
			if ws := wireStep[g.B]; ws > k {
				k = ws
			}
		}
		k++
		wireStep[g.C] = k
		if k > top {
			top = k
		}
		if lastUse[g.A] < k {
			lastUse[g.A] = k
		}
		if g.Op != INV && lastUse[g.B] < k {
			lastUse[g.B] = k
		}
		if g.Op == AND {
			numAND++
			if segAND++; segAND == segANDs {
				base, segAND = top, 0
			}
		}
	}

	// Counting sort of the gates by step, free gates ahead of AND gates,
	// gate order preserved inside each run. nextFree and nextAND are each
	// step's write cursors into order. The AND gates of step k fill the
	// tail of its gates and the tail of its tables, so an AND gate at
	// order[pos] has its table index at tables[pos-(gates-ands)], gates
	// and ands being the step's cumulative ends.
	steps := make([]step, top)
	for i := range c.Gates {
		st := &steps[wireStep[c.Gates[i].C]-1]
		st.gates++
		if c.Gates[i].Op == AND {
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
	s.tables = make([]int32, numAND)
	table := int32(0)
	for i := range c.Gates {
		k := wireStep[c.Gates[i].C] - 1
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
			g := &c.Gates[cursor]
			if g.Op != AND {
				continue
			}
			if ws := wireStep[g.C]; ws > prefixMax {
				prefixMax = ws
			}
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
	return s, nil
}

// NumSteps returns the number of steps in the plan's schedule.
func (p *Plan) NumSteps() int { return len(p.steps) }

// Step returns step k: its XOR/INV gates and its AND gates, each run in
// gate order, and the table-stream index of each AND gate. The slices
// alias the plan and must not be modified.
func (p *Plan) Step(k int) (free, and []Gate, tables []int32) {
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
