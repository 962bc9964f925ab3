package circuit

import (
	"math/rand"
	"testing"
)

// testSegmentSizes are the segment sizes every schedule property is
// checked at: one table per segment, a size that cuts small circuits at
// odd places, the production size, and one no circuit here reaches
// (a single segment — whole-circuit level order).
var testSegmentSizes = []int{1, 7, segmentANDs, 1 << 30}

// buildTestCircuit returns a small hand-made circuit exercising all ops:
//
//	inputs: g0 g1 | e0 e1          (wires 0..3)
//	w4 = g0 XOR e0   (level 1)
//	w5 = g1 AND e1   (level 1)
//	w6 = NOT w4      (level 2)
//	w7 = w5 AND w6   (level 3)
//	w8 = w4 XOR w5   (level 2)
//	outputs: w7, w8
func buildTestCircuit() *Circuit {
	return &Circuit{
		GarblerInputs:   2,
		EvaluatorInputs: 2,
		Outputs:         []Wire{7, 8},
		Gates: []Gate{
			{Op: XOR, A: 0, B: 2},
			{Op: AND, A: 1, B: 3},
			{Op: INV, A: 4},
			{Op: AND, A: 5, B: 6},
			{Op: XOR, A: 4, B: 5},
		},
	}
}

func mustPlanSegmented(t *testing.T, c *Circuit, segANDs int) *Plan {
	t.Helper()
	p, err := newPlanSegmented(c, segANDs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stepGates returns the circuit gate indices of step k of s — free run,
// AND run — and the table indices of the AND run.
func stepGates(s *schedule, k int) (free, and, tables []int32) {
	var prev step
	if k > 0 {
		prev = s.steps[k-1]
	}
	st := s.steps[k]
	firstAND := st.gates - (st.ands - prev.ands)
	return s.order[prev.gates:firstAND], s.order[firstAND:st.gates], s.tables[prev.ands:st.ands]
}

func TestScheduleStructure(t *testing.T) {
	c := buildTestCircuit()
	type stepWant struct {
		free, and, tables []int32
		emit, need        int32
	}
	for _, tc := range []struct {
		name    string
		segANDs int
		steps   []stepWant
	}{
		// One segment: plain level order. Gate 1 is table 0, gate 3 is
		// table 1.
		{"whole", 1 << 30, []stepWant{
			{[]int32{0}, []int32{1}, []int32{0}, 1, 1},
			{[]int32{2, 4}, nil, nil, 1, 1},
			{nil, []int32{3}, []int32{1}, 2, 2},
		}},
		// A segment per table: gate 1 closes the first, so gate 2 starts
		// over at the next step although its producer ran in step 0, and
		// gate 4 — level 2 in the whole circuit — waits for the segment
		// gate 3 closes.
		{"one-table segments", 1, []stepWant{
			{[]int32{0}, []int32{1}, []int32{0}, 1, 1},
			{[]int32{2}, nil, nil, 1, 1},
			{nil, []int32{3}, []int32{1}, 2, 2},
			{[]int32{4}, nil, nil, 2, 2},
		}},
	} {
		s := scheduleSegments(c, tc.segANDs)
		if len(s.steps) != len(tc.steps) {
			t.Fatalf("%s: %d steps, want %d", tc.name, len(s.steps), len(tc.steps))
		}
		for k, want := range tc.steps {
			free, and, tables := stepGates(s, k)
			if !equalInt32(free, want.free) || !equalInt32(and, want.and) || !equalInt32(tables, want.tables) {
				t.Errorf("%s: step %d = free %v and %v tables %v, want free %v and %v tables %v",
					tc.name, k, free, and, tables, want.free, want.and, want.tables)
			}
			if st := s.steps[k]; st.emitReady != want.emit || st.needTables != want.need {
				t.Errorf("%s: step %d watermarks emit=%d need=%d, want %d, %d",
					tc.name, k, st.emitReady, st.needTables, want.emit, want.need)
			}
		}
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scheduleInvariants checks the properties every schedule must satisfy,
// on any circuit at any segment size: the order is a complete
// permutation that respects dependences, every step lies inside one
// segment and segments run in order, and the table watermarks are
// monotone, land exactly on each segment's end at its last step and
// never look past the segment being executed.
func scheduleInvariants(t *testing.T, c *Circuit, segANDs int) {
	t.Helper()
	s := scheduleSegments(c, segANDs)

	numAND, _, _ := c.CountOps()
	if len(s.tables) != numAND {
		t.Fatalf("%d table indices, CountOps says %d AND gates", len(s.tables), numAND)
	}
	// Stream indices in gate order; segments cut the gate list after
	// every segANDs-th AND gate.
	segOf := make([]int, len(c.Gates))
	tableOf := make([]int32, len(c.Gates))
	next := int32(0)
	for i := range c.Gates {
		segOf[i] = int(next) / segANDs
		if c.Gates[i].Op == AND {
			tableOf[i] = next
			next++
		}
	}
	segEnd := func(seg int) int32 { return int32(min((seg+1)*segANDs, numAND)) }

	if len(s.order) != len(c.Gates) {
		t.Fatalf("schedule covers %d of %d gates", len(s.order), len(c.Gates))
	}
	stepOfWire := make([]int, c.NumWires()) // inputs: step -1
	for w := range stepOfWire {
		stepOfWire[w] = -1
	}
	seen := make([]bool, len(c.Gates))
	stepSeg := make([]int, len(s.steps))
	for k := range s.steps {
		free, ands, tables := stepGates(s, k)
		if len(free)+len(ands) == 0 {
			t.Fatalf("step %d is empty", k)
		}
		stepSeg[k] = -1
		for r, run := range [][]int32{free, ands} {
			for i, gi := range run {
				g := &c.Gates[gi]
				if i > 0 && gi <= run[i-1] {
					t.Fatalf("step %d not in gate order", k)
				}
				if seen[gi] {
					t.Fatalf("gate %d scheduled twice", gi)
				}
				seen[gi] = true
				if (g.Op == AND) != (r == 1) {
					t.Fatalf("gate %d (%v) in the wrong run of step %d", gi, g.Op, k)
				}
				if r == 1 && tables[i] != tableOf[gi] {
					t.Fatalf("gate %d paired with table %d, want %d", gi, tables[i], tableOf[gi])
				}
				if stepSeg[k] == -1 {
					stepSeg[k] = segOf[gi]
				}
				if segOf[gi] != stepSeg[k] {
					t.Fatalf("step %d mixes segments %d and %d", k, stepSeg[k], segOf[gi])
				}
				if stepOfWire[g.A] >= k || (g.Op != INV && stepOfWire[g.B] >= k) {
					t.Fatalf("gate %d runs in step %d, no later than a producer", gi, k)
				}
			}
		}
		for _, run := range [][]int32{free, ands} {
			for _, gi := range run {
				stepOfWire[c.NumInputs()+int(gi)] = k
			}
		}
	}
	for gi, ok := range seen {
		if !ok {
			t.Fatalf("gate %d never scheduled", gi)
		}
	}

	var prevEmit, prevNeed int32
	for k, st := range s.steps {
		emit, need, seg := st.emitReady, st.needTables, stepSeg[k]
		if k > 0 && seg < stepSeg[k-1] {
			t.Fatalf("step %d returns to segment %d after segment %d", k, seg, stepSeg[k-1])
		}
		if emit < prevEmit || need < prevNeed {
			t.Fatalf("watermarks not monotone at step %d", k)
		}
		lastOfSegment := k == len(s.steps)-1 || stepSeg[k+1] != seg
		if lastOfSegment && emit != segEnd(seg) {
			t.Fatalf("EmitReady = %d at the last step of segment %d, want its end %d", emit, seg, segEnd(seg))
		}
		if emit > segEnd(seg) {
			t.Fatalf("EmitReady(%d) = %d overruns segment %d (end %d)", k, emit, seg, segEnd(seg))
		}
		if need > segEnd(seg) {
			t.Fatalf("NeedTables(%d) = %d looks past segment %d (end %d)", k, need, seg, segEnd(seg))
		}
		if _, _, tables := stepGates(s, k); len(tables) > 0 && need < tables[len(tables)-1]+1 {
			t.Fatalf("NeedTables(%d) = %d, step uses table %d", k, need, tables[len(tables)-1])
		}
		prevEmit, prevNeed = emit, need
	}
	if n := len(s.steps); n > 0 && int(s.steps[n-1].emitReady) != numAND {
		t.Fatalf("final EmitReady = %d, want %d", s.steps[n-1].emitReady, numAND)
	}
}

func TestScheduleInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(20260925))
	circuits := []*Circuit{buildTestCircuit(), planTestCircuit(t)}
	for i := 0; i < 100; i++ {
		circuits = append(circuits, RandomCircuit(rng))
	}
	for _, c := range circuits {
		for _, segANDs := range testSegmentSizes {
			scheduleInvariants(t, c, segANDs)
		}
	}
}

func TestScheduleEmptyAndFreeOnly(t *testing.T) {
	// No gates at all.
	c := &Circuit{GarblerInputs: 1, EvaluatorInputs: 1, Outputs: []Wire{0}}
	p := mustPlanSegmented(t, c, segmentANDs)
	if p.NumSteps() != 0 || len(p.Tables) != 0 {
		t.Fatalf("empty circuit: steps=%d tables=%d", p.NumSteps(), len(p.Tables))
	}
	// XOR-only circuit: one step, no tables.
	c = &Circuit{
		GarblerInputs: 1, EvaluatorInputs: 1,
		Outputs: []Wire{2},
		Gates:   []Gate{{Op: XOR, A: 0, B: 1}},
	}
	p = mustPlanSegmented(t, c, segmentANDs)
	if len(p.Tables) != 0 || p.NumSteps() != 1 {
		t.Fatalf("xor-only: steps=%d tables=%d", p.NumSteps(), len(p.Tables))
	}
	if free, and, tables := p.Step(0); len(free) != 1 || len(and) != 0 || len(tables) != 0 {
		t.Fatalf("xor-only: step 0 = %d free, %d AND, %d tables", len(free), len(and), len(tables))
	}
	if p.EmitReady(0) != 0 || p.NeedTables(0) != 0 {
		t.Fatalf("xor-only watermarks: emit=%d need=%d", p.EmitReady(0), p.NeedTables(0))
	}
	scheduleInvariants(t, c, segmentANDs)
}
