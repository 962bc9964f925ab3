package circuit

import "sync/atomic"

// Plan is a precompiled execution plan for a circuit: the gate list
// reordered into a segment-local schedule (see schedule.go) and renamed
// from the write-once wire space onto a compact physical slot space of
// width ≈ peak-live wires under that order. It is the software analogue
// of the paper's compiler passes: segment reordering (§4.2.1) picks the
// order, renaming (§3.1.4, §4.2.2) maps wires into a small dense space
// and evicts dead ones, so the working set of a run is about one
// segment's live wires, not the circuit's total wire count.
//
// A Plan is immutable after construction and safe for concurrent use by
// any number of executions; build it once per circuit and share it.
type Plan struct {
	// Circuit is the source circuit. The plan does not modify it.
	Circuit *Circuit

	// Gates is the circuit's gate list in execution order, with A/B/C
	// rewritten to slot indices in [0, NumSlots). For INV gates B is set
	// equal to A. It is a straight-line program over the slot arena:
	// running it front to back is always correct, and Step says which
	// stretches of it are independent. A slot whose wire dies in step j
	// is recycled by a gate of some later step, so no other order is
	// valid — circuit gate order in particular is not.
	Gates []Gate

	// Tables[i] is the table-stream index of the i-th AND gate of Gates —
	// the position of its table in the gate-order table stream and the
	// value of its hash tweak. Tables stay in circuit gate order whatever
	// the schedule, so the wire format does not depend on it. len(Tables)
	// is the circuit's AND-gate count.
	Tables []int32

	// NumSlots is the width of the physical slot space — the label-arena
	// length an executor needs. Input-like wire w occupies slot w at the
	// start of execution (inputs are renamed to themselves), so input
	// labels can be copied into the arena front verbatim.
	NumSlots int

	// OutputSlots[i] is the slot holding Circuit.Outputs[i] at the end of
	// execution. Output slots are never recycled, so they remain valid
	// whenever execution finishes.
	OutputSlots []Wire

	// PeakLive is the maximum number of simultaneously live wires across
	// the scheduled execution: inputs plus every wire written so far,
	// minus wires whose last reader has completed. The renamer achieves
	// exactly this width (NumSlots == PeakLive).
	PeakLive int

	steps []step
}

// planBuilds counts NewPlan calls; a test hook for asserting that plan
// reuse paths (haac.Precompile and friends) compile once per circuit.
var planBuilds atomic.Uint64

// PlanBuilds returns the number of plans built by this process.
func PlanBuilds() uint64 { return planBuilds.Load() }

// NewPlan validates the circuit, schedules it segment by segment, runs
// the last-use liveness pass and the slot-renaming pass over that order,
// and returns the reusable plan. Every pass is O(gates).
//
// Renaming respects step boundaries: a slot whose wire dies in step k
// (its last reader runs in step k) is reused only by gates of steps
// strictly after k. Step-synchronous executors — sequential loops as
// well as worker pools with a barrier per step — therefore never race a
// write against a read of the same slot inside a step.
func NewPlan(c *Circuit) (*Plan, error) {
	return newPlanSegmented(c, segmentANDs)
}

// newPlanSegmented is NewPlan with the segment size as a parameter, so
// tests can cover one-gate segments and whole-circuit segments alike.
func newPlanSegmented(c *Circuit, segANDs int) (*Plan, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	planBuilds.Add(1)
	sched, err := scheduleSegments(c, segANDs)
	if err != nil {
		return nil, err
	}
	// Primary outputs are pinned live forever. A wire nobody reads keeps
	// lastUse below its write step and is released as it is written.
	const neverDies = int32(1) << 30
	lastUse := sched.lastUse
	for _, o := range c.Outputs {
		lastUse[o] = neverDies
	}

	p := &Plan{
		Circuit: c,
		Gates:   make([]Gate, len(c.Gates)),
		Tables:  sched.tables,
		steps:   sched.steps,
	}

	// Renaming sweep over the schedule. Inputs occupy slots [0, nin) —
	// the identity map — so executors load input labels with a single
	// copy. free is a LIFO stack: the most recently vacated slot is the
	// hottest in cache. Slots vacated during a step wait in vacated and
	// join free only when the next step starts, which is the
	// step-boundary rule; lastUse is zeroed as a wire is released so a
	// wire read twice in its last step is released once.
	nin := c.NumInputs()
	slot := make([]Wire, c.NumWires)
	var free, vacated []Wire
	for w := 0; w < nin; w++ {
		slot[w] = Wire(w)
		if lastUse[w] == 0 {
			vacated = append(vacated, Wire(w))
		}
	}
	nextSlot := nin
	live, peak := nin, nin
	pos := int32(0)
	for k := range p.steps {
		free = append(free, vacated...)
		live -= len(vacated)
		vacated = vacated[:0]
		now, start, end := int32(k)+1, pos, p.steps[k].gates
		for ; pos < end; pos++ {
			g := &c.Gates[sched.order[pos]]
			var s Wire
			if n := len(free); n > 0 {
				s = free[n-1]
				free = free[:n-1]
			} else {
				s = Wire(nextSlot)
				nextSlot++
			}
			slot[g.C] = s
			rg := Gate{Op: g.Op, A: slot[g.A], B: slot[g.A], C: s}
			if g.Op != INV {
				rg.B = slot[g.B]
			}
			p.Gates[pos] = rg

			if lastUse[g.A] == now {
				lastUse[g.A] = 0
				vacated = append(vacated, rg.A)
			}
			if g.Op != INV && lastUse[g.B] == now {
				lastUse[g.B] = 0
				vacated = append(vacated, rg.B)
			}
			if lastUse[g.C] < now {
				vacated = append(vacated, s)
			}
		}
		live += int(end - start)
		if live > peak {
			peak = live
		}
	}

	p.NumSlots = nextSlot
	p.PeakLive = peak
	p.OutputSlots = make([]Wire, len(c.Outputs))
	for i, o := range c.Outputs {
		p.OutputSlots[i] = slot[o]
	}
	return p, nil
}
