package gc

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"haac/internal/circuit"
	"haac/internal/label"
)

// Differential tests for the whole-step form: RekeyedHasher's step
// kernels against the one-gate path they replace — garbleGate/evalGate
// over garbleRows/evalRows — on the three AES code paths one VAES host
// has (step kernel, AES-NI one-gate kernels, T-table), byte for byte over
// the whole slot arena and table stream. On a host without the kernel
// every runner below takes the one-gate path and the tests check that
// the paths agree, never something else.

// stepRun is a run of AND gates over a slot arena and a table stream.
type stepRun struct {
	slots  []label.L
	tables []Material
	r      label.L
	and    []circuit.Gate
	index  []int32
}

// oneGateHashers are the references: the one-gate path on the live tier,
// the same through individual Hash calls, and on the T-table tier.
func oneGateHashers() []Hasher {
	return []Hasher{RekeyedHasher{}, plainHasher{RekeyedHasher{}}, SoftRekeyedHasher{}}
}

// garbleSpan garbles the run on a copy of its arena and tables, through
// h's whole-step form if step is set and it has one.
func (s *stepRun) garbleSpan(h Hasher, step bool) ([]label.L, []Material) {
	pg := &PlanGarbler{h: batched(h), r: s.r,
		slots: append([]label.L(nil), s.slots...), tables: append([]Material(nil), s.tables...)}
	if step {
		pg.step, _ = h.(stepHasher)
	}
	pg.span(s.and, s.index)
	return pg.slots, pg.tables
}

// evalSpan is garbleSpan for the evaluator; the tables are only read.
func (s *stepRun) evalSpan(h Hasher, step bool) []label.L {
	pe := &PlanEvaluator{h: batched(h), slots: append([]label.L(nil), s.slots...), tables: s.tables}
	if step {
		pe.step, _ = h.(stepHasher)
	}
	pe.span(s.and, s.index)
	return pe.slots
}

// check runs both roles through the step form and every reference and
// compares everything they could have written.
func (s *stepRun) check(t testing.TB, name string) {
	t.Helper()
	gotSlots, gotTables := s.garbleSpan(RekeyedHasher{}, true)
	gotEval := s.evalSpan(RekeyedHasher{}, true)
	for _, h := range oneGateHashers() {
		wantSlots, wantTables := s.garbleSpan(h, false)
		for i := range wantSlots {
			if gotSlots[i] != wantSlots[i] {
				t.Fatalf("%s: garbled slot %d differs from the one-gate path on %s", name, i, h.Name())
			}
		}
		for i := range wantTables {
			if gotTables[i] != wantTables[i] {
				t.Fatalf("%s: table %d differs from the one-gate path on %s", name, i, h.Name())
			}
		}
		for i, want := range s.evalSpan(h, false) {
			if gotEval[i] != want {
				t.Fatalf("%s: evaluated slot %d differs from the one-gate path on %s", name, i, h.Name())
			}
		}
	}
}

// randomRun builds n independent gates reading slots [0, inputs) and
// writing [inputs, inputs+n), with table indices scattered over a stream
// longer than the run.
func randomRun(rng *rand.Rand, inputs, n int) *stepRun {
	s := &stepRun{r: randLabel(rng), slots: make([]label.L, inputs+n), tables: make([]Material, 2*n+5)}
	s.r.Lo |= 1
	for i := range s.slots {
		s.slots[i] = randLabel(rng)
	}
	for i := range s.tables {
		s.tables[i] = Material{TG: randLabel(rng), TE: randLabel(rng)}
	}
	for i, j := range rng.Perm(len(s.tables))[:n] {
		s.and = append(s.and, circuit.Gate{Op: circuit.AND,
			A: circuit.Wire(rng.Intn(inputs)), B: circuit.Wire(rng.Intn(inputs)), C: circuit.Wire(inputs + i)})
		s.index = append(s.index, int32(j))
	}
	return s
}

// TestStepMatchesOneGatePath: run lengths around the kernel's pair width
// and the pool's chunking (odd tails included), table indices out of
// order and at the end of the stream.
func TestStepMatchesOneGatePath(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 2, 3, 63, 64, 65} {
		s := randomRun(rng, 40, n)
		if n > 0 {
			s.index[n-1] = int32(len(s.tables) - 1)
			s.index[0] = int32(len(s.tables) - 2)
		}
		s.check(t, "random run")
	}
}

// TestStepRowSelection forces every colour combination of the two input
// zero-labels, on both gates of a pair and with A == B, against every
// evaluator view of them (a0 or a1, b0 or b1): the masks must select the
// rows the branches do.
func TestStepRowSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for colours := 0; colours < 16; colours++ {
		s := randomRun(rng, 4, 3)
		for i := 0; i < 4; i++ {
			s.slots[i].Lo = s.slots[i].Lo&^1 | uint64(colours>>i&1)
		}
		s.and[0].A, s.and[0].B = 0, 1
		s.and[1].A, s.and[1].B = 2, 3
		s.and[2].A, s.and[2].B = 0, 0
		_, tables := s.garbleSpan(RekeyedHasher{}, true)
		s.check(t, "garble")
		// Evaluate the garbled gates under every choice of active labels.
		zeros := append([]label.L(nil), s.slots...)
		s.tables = tables
		for active := 0; active < 16; active++ {
			copy(s.slots, zeros)
			for i := 0; i < 4; i++ {
				if active>>i&1 == 1 {
					s.slots[i] = s.slots[i].Xor(s.r)
				}
			}
			s.check(t, "evaluate")
		}
	}
}

// TestStepInPlaceOnRecycledArena runs successive steps on one small
// arena the way a plan does: each step's gates read what earlier steps
// wrote and overwrite slots whose labels are dead.
func TestStepInPlaceOnRecycledArena(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const width, steps = 10, 12
	s := randomRun(rng, 2*width, 0)
	s.tables = make([]Material, width*steps)
	perm := rng.Perm(len(s.tables))
	for k := 0; k < steps; k++ {
		// Step k reads one half of the arena and writes the other.
		from, to := k%2*width, (k+1)%2*width
		s.and, s.index = s.and[:0], s.index[:0]
		for i := 0; i < width-k%3; i++ {
			s.and = append(s.and, circuit.Gate{Op: circuit.AND,
				A: circuit.Wire(from + rng.Intn(width)), B: circuit.Wire(from + rng.Intn(width)), C: circuit.Wire(to + i)})
			s.index = append(s.index, int32(perm[k*width+i]))
		}
		s.check(t, "recycled arena")
		s.slots, s.tables = s.garbleSpan(RekeyedHasher{}, true)
	}
}

// TestStepSafeRejectsBadPlans: the kernels follow a plan's indices
// unchecked, so a runner takes the step form only on a plan whose every
// index is in range; any other plan runs on the one-gate path (where an
// out-of-range index is Go's bounds-check panic, as it always was).
func TestStepSafeRejectsBadPlans(t *testing.T) {
	c := &circuit.Circuit{NumWires: 5, GarblerInputs: 1, EvaluatorInputs: 1, Outputs: []circuit.Wire{4}}
	c.Gates = []circuit.Gate{
		{Op: circuit.AND, A: 0, B: 1, C: 2},
		{Op: circuit.AND, A: 1, B: 0, C: 3},
		{Op: circuit.XOR, A: 2, B: 3, C: 4},
	}
	good := mustPlan(t, c)
	if !stepSafe(good) {
		t.Fatal("a plan from NewPlan is not step-safe")
	}
	if _, hasStep := Hasher(RekeyedHasher{}).(stepHasher); !hasStep {
		t.Fatal("RekeyedHasher lost its whole-step form")
	}
	if NewPlanGarbler(good, RekeyedHasher{}, 1).step == nil || NewPlanEvaluator(good, RekeyedHasher{}, 1).step == nil {
		t.Fatal("runners do not take the step form on a safe plan")
	}
	if NewPlanGarbler(good, NewFixedKeyHasher([16]byte{1}), 1).step != nil {
		t.Fatal("a hasher without the step form got one")
	}

	corrupt := func(edit func(p *circuit.Plan)) *circuit.Plan {
		p := mustPlan(t, c)
		p.Gates = append([]circuit.Gate(nil), p.Gates...)
		p.Tables = append([]int32(nil), p.Tables...)
		edit(p)
		return p
	}
	bad := map[string]*circuit.Plan{
		"A past the arena":        corrupt(func(p *circuit.Plan) { p.Gates[0].A = circuit.Wire(p.NumSlots) }),
		"B past the arena":        corrupt(func(p *circuit.Plan) { p.Gates[1].B = 1 << 31 }),
		"C past the arena":        corrupt(func(p *circuit.Plan) { p.Gates[len(p.Gates)-1].C = circuit.Wire(p.NumSlots) }),
		"table index past stream": corrupt(func(p *circuit.Plan) { p.Tables[0] = int32(len(p.Tables)) }),
		"negative table index":    corrupt(func(p *circuit.Plan) { p.Tables[1] = -1 }),
		"arena narrower than use": corrupt(func(p *circuit.Plan) { p.NumSlots-- }),
	}
	for name, p := range bad {
		if stepSafe(p) {
			t.Errorf("%s: plan passed stepSafe", name)
		}
		if NewPlanEvaluator(p, RekeyedHasher{}, 1).step != nil {
			t.Errorf("%s: evaluator took the step form", name)
		}
	}
	// A short table stream is refused before any gate of the step runs.
	pe := NewPlanEvaluator(good, RekeyedHasher{}, 1)
	if _, err := pe.EvalStream(make([]label.L, c.NumInputs()), func(int) ([]Material, error) {
		return make([]Material, 1), nil
	}); err == nil {
		t.Fatal("a table stream shorter than the step needs was accepted")
	}
}

// FuzzHalfGateStep: arbitrary slot contents, gate records, offset and
// table bytes through the step form and the one-gate references. The
// gates stay inside what stepSafe admits — inputs in the lower half of
// the arena, outputs in the upper — and everything else is the fuzzer's.
func FuzzHalfGateStep(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2))
	f.Add(make([]byte, 600), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		const half, nTables = 8, 16
		next := func() uint64 {
			var b [8]byte
			data = data[copy(b[:], data):]
			return binary.LittleEndian.Uint64(b[:])
		}
		s := &stepRun{r: label.L{Lo: next() | 1, Hi: next()}, slots: make([]label.L, 2*half), tables: make([]Material, nTables)}
		for i := 0; i < int(n%12); i++ {
			g := next()
			s.and = append(s.and, circuit.Gate{Op: circuit.AND,
				A: circuit.Wire(g % half), B: circuit.Wire(g >> 8 % half), C: circuit.Wire(half + g>>16%half)})
			s.index = append(s.index, int32(g>>24%nTables))
		}
		for i := range s.slots {
			s.slots[i] = label.L{Lo: next(), Hi: next()}
		}
		for i := range s.tables {
			s.tables[i] = Material{TG: label.L{Lo: next(), Hi: next()}, TE: label.L{Lo: next(), Hi: next()}}
		}
		s.check(t, "fuzz")
	})
}
