package gc

import (
	"fmt"

	"haac/internal/circuit"
	"haac/internal/label"
)

// Plan-based execution — the one production engine: the runners in this
// file execute a precompiled circuit.Plan instead of a raw circuit. The
// plan orders the gates segment by segment (§4.2.1) and its renaming
// maps the write-once wire space onto a slot space of width == peak-live
// wires, so a run touches a label arena of NumSlots entries — about one
// segment's live wires — instead of NumWires: the paper's
// rename-and-evict memory idea (§3.1.4) applied to the software hot
// path. The runners walk the plan's steps; per step the free gates are a
// Go loop and the AND gates are one span (or one per pool worker). A
// span goes first to the hasher's whole-step form if it has one (step.go:
// RekeyedHasher on a VAES host, where one kernel call does the gates two
// at a time from gather to stores), and whatever that leaves — an odd
// last gate, or everything — to the one-gate path garbleGate/evalGate.
// The schedule is built once with the plan, never per run. Runners own
// their arenas and reuse them across runs: steady-state plan execution
// allocates nothing.
//
// Outputs are byte-identical to the reference Garble/Evaluate: renaming
// only moves where labels are stored, never what is hashed, and tables
// keep their gate-order stream positions and tweaks.

// PlanGarbler garbles a precompiled plan repeatedly with zero
// steady-state allocations. A PlanGarbler is not safe for concurrent
// use; share the Plan and give each goroutine its own runner.
//
// Usage per run: Begin (draws the FreeXOR offset and input labels, so a
// protocol can ship labels and run OT before garbling), then Run. The
// returned Garbled and every slice it references are owned by the
// runner and overwritten by the next Begin/Run cycle.
type PlanGarbler struct {
	p          *circuit.Plan
	h          BatchHasher
	step       stepHasher // nil unless the hasher has the whole-step form and the plan passed stepSafe
	pool       *stepPool
	slots      []label.L
	inputZeros []label.L
	tables     []Material
	outs       []label.L
	r          label.L
	g          Garbled
	began      bool
}

// NewPlanGarbler builds a reusable garbler for the plan. workers <= 1 is
// sequential; larger values split the AND gates of each wide enough
// schedule step across that many pool goroutines. Call Close when done
// with a parallel runner to release its pool.
func NewPlanGarbler(p *circuit.Plan, h Hasher, workers int) *PlanGarbler {
	pg := &PlanGarbler{
		p:          p,
		h:          batched(h),
		slots:      make([]label.L, p.NumSlots),
		inputZeros: make([]label.L, p.Circuit.NumInputs()),
		tables:     make([]Material, len(p.Tables)),
		outs:       make([]label.L, len(p.Circuit.Outputs)),
	}
	pg.step = stepFor(p, h)
	if workers > 1 {
		pg.pool = newStepPool(workers, pg.span)
	}
	return pg
}

// span garbles a run of one step's AND gates (index[i] is and[i]'s table
// index): the whole-step form on the prefix it takes, the one-gate form
// on the rest.
func (pg *PlanGarbler) span(and []circuit.Gate, index []int32) {
	slots, tables := pg.slots, pg.tables
	done := 0
	if pg.step != nil {
		done = pg.step.garbleStep(slots, tables, &pg.r, and, index)
	}
	for i := done; i < len(and); i++ {
		g, j := &and[i], index[i]
		tables[j], slots[g.C] = garbleGate(pg.h, slots[g.A], slots[g.B], pg.r, uint64(j))
	}
}

// Close releases the worker pool (a no-op for sequential runners).
func (pg *PlanGarbler) Close() {
	if pg.pool != nil {
		pg.pool.close()
		pg.pool = nil
	}
}

// Begin starts a run: it draws the FreeXOR offset and the input labels,
// consuming src exactly as the reference Garble does.
func (pg *PlanGarbler) Begin(src *label.Source) {
	pg.r = src.NextDelta()
	for i := range pg.inputZeros {
		l := src.Next()
		pg.slots[i] = l // inputs are renamed to themselves
		pg.inputZeros[i] = l
	}
	pg.began = true
}

// R returns the FreeXOR offset of the current run.
func (pg *PlanGarbler) R() label.L { return pg.r }

// InputZeros returns the zero-labels of all input-like wires for the
// current run. The slice is reused by the next Begin.
func (pg *PlanGarbler) InputZeros() []label.L { return pg.inputZeros }

// Tables returns the runner's table arena, the same memory every run:
// Run fills it, the chunks it hands emit are consecutive pieces of it
// from index 0, and an emitted piece stays as it is until the next Run.
// A transport streams tables from here without a copy.
func (pg *PlanGarbler) Tables() []Material { return pg.tables }

// Run garbles the whole plan step by step, invoking emit (if non-nil)
// with successive gate-order table chunks as they complete — at the
// latest when a segment ends: chunks never overlap and concatenate to
// exactly Garbled.Tables, and an emit error aborts the run. Begin must
// be called before each Run.
func (pg *PlanGarbler) Run(emit func(tables []Material) error) (*Garbled, error) {
	if !pg.began {
		return nil, fmt.Errorf("gc: PlanGarbler.Run without Begin")
	}
	pg.began = false
	p, slots, r := pg.p, pg.slots, pg.r

	sent := 0
	for k := 0; k < p.NumSteps(); k++ {
		free, and, index := p.Step(k)
		for i := range free {
			g := &free[i]
			if g.Op == circuit.XOR {
				slots[g.C] = slots[g.A].Xor(slots[g.B])
			} else { // INV
				slots[g.C] = slots[g.A].Xor(r)
			}
		}
		if len(and) > 0 {
			if pg.pool != nil && len(and) >= minParallelStep {
				pg.pool.run(and, index)
			} else {
				pg.span(and, index)
			}
		}
		if emit != nil {
			if ready := p.EmitReady(k); ready > sent {
				if err := emit(pg.tables[sent:ready]); err != nil {
					return nil, fmt.Errorf("gc: emitting tables: %w", err)
				}
				sent = ready
			}
		}
	}

	for i, s := range pg.p.OutputSlots {
		pg.outs[i] = slots[s]
	}
	pg.g = Garbled{R: r, InputZeros: pg.inputZeros, Tables: pg.tables, OutputZeros: pg.outs}
	return &pg.g, nil
}

// GarblePlan garbles a plan in one shot with the given worker count.
// For steady-state reuse hold a PlanGarbler instead.
func GarblePlan(p *circuit.Plan, h Hasher, src *label.Source, workers int) (*Garbled, error) {
	pg := NewPlanGarbler(p, h, workers)
	defer pg.Close()
	pg.Begin(src)
	return pg.Run(nil)
}

// PlanEvaluator evaluates a precompiled plan repeatedly with zero
// steady-state allocations. Not safe for concurrent use; share the Plan
// and give each goroutine its own runner. The output-label slice
// returned by Eval/EvalStream is reused by the next run.
type PlanEvaluator struct {
	p      *circuit.Plan
	h      BatchHasher
	step   stepHasher // as PlanGarbler.step
	pool   *stepPool
	slots  []label.L
	outs   []label.L
	tables []Material
}

// NewPlanEvaluator builds a reusable evaluator for the plan. workers
// follows the NewPlanGarbler convention; Close releases a parallel pool.
func NewPlanEvaluator(p *circuit.Plan, h Hasher, workers int) *PlanEvaluator {
	pe := &PlanEvaluator{
		p:     p,
		h:     batched(h),
		slots: make([]label.L, p.NumSlots),
		outs:  make([]label.L, len(p.Circuit.Outputs)),
	}
	pe.step = stepFor(p, h)
	if workers > 1 {
		pe.pool = newStepPool(workers, pe.span)
	}
	return pe
}

// span is the evaluator's counterpart of PlanGarbler.span, over the
// tables EvalStream checked for this step.
func (pe *PlanEvaluator) span(and []circuit.Gate, index []int32) {
	slots, tables := pe.slots, pe.tables
	done := 0
	if pe.step != nil {
		done = pe.step.evalStep(slots, tables, and, index)
	}
	for i := done; i < len(and); i++ {
		g, j := &and[i], index[i]
		slots[g.C] = evalGate(pe.h, slots[g.A], slots[g.B], tables[j], uint64(j))
	}
}

// Close releases the worker pool (a no-op for sequential runners).
func (pe *PlanEvaluator) Close() {
	if pe.pool != nil {
		pe.pool.close()
		pe.pool = nil
	}
}

// Eval runs the evaluator over the full table stream, producing output
// labels identical to the reference Evaluate.
func (pe *PlanEvaluator) Eval(inputs []label.L, tables []Material) ([]label.L, error) {
	if len(tables) != len(pe.p.Tables) {
		return nil, fmt.Errorf("gc: %d tables provided, plan has %d AND gates",
			len(tables), len(pe.p.Tables))
	}
	return pe.EvalStream(inputs, func(int) ([]Material, error) { return tables, nil })
}

// EvalStream evaluates with tables arriving asynchronously: before each
// step with AND gates it calls need(n), which must block until at least
// the first n tables of the gate-order stream are available and return
// the stream so far (the returned slice may grow between calls; entries
// below n must be final). n never reaches past the segment being
// evaluated, so a protocol evaluates one segment while later ones are
// still being garbled or in flight.
func (pe *PlanEvaluator) EvalStream(inputs []label.L, need func(n int) ([]Material, error)) ([]label.L, error) {
	c := pe.p.Circuit
	if len(inputs) != c.NumInputs() {
		return nil, fmt.Errorf("gc: got %d input labels, want %d", len(inputs), c.NumInputs())
	}
	p, slots := pe.p, pe.slots
	copy(slots, inputs) // inputs are renamed to themselves

	for k := 0; k < p.NumSteps(); k++ {
		free, and, index := p.Step(k)
		for i := range free {
			g := &free[i]
			if g.Op == circuit.XOR {
				slots[g.C] = slots[g.A].Xor(slots[g.B])
			} else { // INV: evaluator keeps the active label
				slots[g.C] = slots[g.A]
			}
		}
		if len(and) > 0 {
			n := p.NeedTables(k)
			t, err := need(n)
			if err != nil {
				return nil, fmt.Errorf("gc: waiting for tables: %w", err)
			}
			if len(t) < n {
				return nil, fmt.Errorf("gc: table stream exhausted (have %d, step %d needs %d)",
					len(t), k, n)
			}
			pe.tables = t
			if pe.pool != nil && len(and) >= minParallelStep {
				pe.pool.run(and, index)
			} else {
				pe.span(and, index)
			}
		}
	}
	pe.tables = nil

	for i, s := range pe.p.OutputSlots {
		pe.outs[i] = slots[s]
	}
	return pe.outs, nil
}

// EvalPlan evaluates a plan in one shot with the given worker count.
// For steady-state reuse hold a PlanEvaluator.
func EvalPlan(p *circuit.Plan, h Hasher, inputs []label.L, tables []Material, workers int) ([]label.L, error) {
	pe := NewPlanEvaluator(p, h, workers)
	defer pe.Close()
	return pe.Eval(inputs, tables)
}
