package compiler

import (
	"fmt"
	"testing"

	"haac/internal/gc"
	"haac/internal/isa"
	"haac/internal/label"
	"haac/internal/workloads"
)

// Garbled execution of compiled HAAC programs: a check of the compiler,
// not a product path (the 2PC stack garbles through gc's plan engine).
// It is the full co-design path: the Garbler-side accelerator garbles
// gates in the compiler's (post-reorder) program order, emitting each
// AND gate's table into the owning gate engine's table queue; the
// Evaluator-side accelerator replays its instruction streams, popping
// tables and out-of-range wires from its queues. Hash tweaks are the
// instructions' output wire addresses — unique by renaming and
// derivable from the PC, so no gate-index metadata needs to be streamed.
//
// Together with Compiled.Execute (the plaintext replay), this proves the
// compiler's reordering/renaming/ESW/stream passes preserve not only the
// Boolean function but the garbling-scheme semantics end to end.

// programGarbled is the garbler's output for one compiled program.
type programGarbled struct {
	// R is the FreeXOR offset.
	R label.L
	// InputZeros holds the zero-label per program input (input order).
	InputZeros []label.L
	// Tables holds each GE's table queue in stream order.
	Tables [][]gc.Material
	// OutputZeros holds the zero-label per program output.
	OutputZeros []label.L
}

// decodeBits returns the point-and-permute decode bit per output.
func (pg *programGarbled) decodeBits() []int {
	d := make([]int, len(pg.OutputZeros))
	for i, z := range pg.OutputZeros {
		d[i] = z.Colour()
	}
	return d
}

// decode maps active output labels to plaintext bits, rejecting labels
// that are neither of a wire's two valid labels.
func (pg *programGarbled) decode(outputs []label.L) ([]bool, error) {
	if len(outputs) != len(pg.OutputZeros) {
		return nil, fmt.Errorf("compiler: got %d output labels, want %d", len(outputs), len(pg.OutputZeros))
	}
	bits := make([]bool, len(outputs))
	for i, l := range outputs {
		switch l {
		case pg.OutputZeros[i]:
			bits[i] = false
		case pg.OutputZeros[i].Xor(pg.R):
			bits[i] = true
		default:
			return nil, fmt.Errorf("compiler: output %d label invalid", i)
		}
	}
	return bits, nil
}

// garble garbles the compiled program (the HAAC Garbler's job),
// producing per-GE table queues.
func (cp *Compiled) garble(h gc.Hasher, src *label.Source) (*programGarbled, error) {
	p := &cp.Program
	r := src.NextDelta()
	zeros := make([]label.L, p.MaxAddr()+1)

	pg := &programGarbled{
		R:          r,
		InputZeros: make([]label.L, p.NumInputs),
		Tables:     make([][]gc.Material, cp.Cfg.NumGEs),
	}
	for i := range pg.InputZeros {
		a := isa.Addr(i)
		zeros[a] = src.Next()
		pg.InputZeros[i] = zeros[a]
	}

	for j := range p.Instrs {
		in := &p.Instrs[j]
		if in.Op == isa.NOP {
			continue
		}
		o := p.OutAddr(j)
		a := in.A
		if a == isa.OoR {
			a = cp.oorA[j]
		}
		b := in.B
		if b == isa.OoR {
			b = cp.oorB[j]
		}
		switch in.Op {
		case isa.XOR:
			zeros[o] = zeros[a].Xor(zeros[b])
		case isa.AND:
			m, c0 := gc.GarbleAND(h, zeros[a], zeros[b], r, uint64(o))
			zeros[o] = c0
			g := cp.GEOf[j]
			pg.Tables[g] = append(pg.Tables[g], m)
		default:
			return nil, fmt.Errorf("compiler: cannot garble op %v", in.Op)
		}
	}
	pg.OutputZeros = make([]label.L, len(p.OutputAddrs))
	for i, a := range p.OutputAddrs {
		pg.OutputZeros[i] = zeros[a]
	}
	return pg, nil
}

// encodeProgramInputs maps plaintext program-input bits (InputBits
// layout) to active labels.
func (pg *programGarbled) encodeProgramInputs(bits []bool) ([]label.L, error) {
	if len(bits) != len(pg.InputZeros) {
		return nil, fmt.Errorf("compiler: got %d input bits, want %d", len(bits), len(pg.InputZeros))
	}
	out := make([]label.L, len(bits))
	for i, v := range bits {
		out[i] = pg.InputZeros[i]
		if v {
			out[i] = out[i].Xor(pg.R)
		}
	}
	return out, nil
}

// evaluateLabels replays the per-GE streams with real labels (the HAAC
// Evaluator's job): AND instructions pop their GE's table queue, OoR
// operands pop the GE's OoRW queue.
func (cp *Compiled) evaluateLabels(h gc.Hasher, inputs []label.L, tables [][]gc.Material) ([]label.L, error) {
	p := &cp.Program
	if len(inputs) != p.NumInputs {
		return nil, fmt.Errorf("compiler: got %d input labels, want %d", len(inputs), p.NumInputs)
	}
	if len(tables) != cp.Cfg.NumGEs {
		return nil, fmt.Errorf("compiler: got %d table queues, want %d", len(tables), cp.Cfg.NumGEs)
	}
	labels := make([]label.L, p.MaxAddr()+1)
	for i, l := range inputs {
		labels[isa.Addr(i)] = l
	}
	tPos := make([]int, len(tables))
	oPos := make([]int, len(cp.OoRW))

	for j := range p.Instrs {
		in := &p.Instrs[j]
		if in.Op == isa.NOP {
			continue
		}
		g := cp.GEOf[j]
		a := in.A
		if a == isa.OoR {
			if oPos[g] >= len(cp.OoRW[g]) {
				return nil, fmt.Errorf("compiler: GE %d OoRW underflow at instruction %d", g, j)
			}
			a = cp.OoRW[g][oPos[g]]
			oPos[g]++
		}
		b := in.B
		if b == isa.OoR {
			if oPos[g] >= len(cp.OoRW[g]) {
				return nil, fmt.Errorf("compiler: GE %d OoRW underflow at instruction %d", g, j)
			}
			b = cp.OoRW[g][oPos[g]]
			oPos[g]++
		}
		o := p.OutAddr(j)
		switch in.Op {
		case isa.XOR:
			labels[o] = labels[a].Xor(labels[b])
		case isa.AND:
			if tPos[g] >= len(tables[g]) {
				return nil, fmt.Errorf("compiler: GE %d table queue underflow at instruction %d", g, j)
			}
			labels[o] = gc.EvalAND(h, labels[a], labels[b], tables[g][tPos[g]], uint64(o))
			tPos[g]++
		}
	}
	for g := range tables {
		if tPos[g] != len(tables[g]) {
			return nil, fmt.Errorf("compiler: GE %d left %d tables unconsumed", g, len(tables[g])-tPos[g])
		}
	}
	out := make([]label.L, len(p.OutputAddrs))
	for i, a := range p.OutputAddrs {
		out[i] = labels[a]
	}
	return out, nil
}

// runGarbled executes a workload through the complete co-design path:
// compile -> garble in program order (per-GE table queues) -> evaluate
// by replaying the streams with real labels -> decode.
func runGarbled(t *testing.T, w workloads.Workload, cfg Config, seed int64) {
	t.Helper()
	c := w.Build()
	cp, err := Compile(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := gc.RekeyedHasher{}
	pg, err := cp.garble(h, label.NewSource(uint64(seed)*77+1))
	if err != nil {
		t.Fatal(err)
	}

	g, e := w.Inputs(seed)
	want := w.Reference(g, e)
	bits, err := cp.InputBits(c, g, e)
	if err != nil {
		t.Fatal(err)
	}
	inLabels, err := pg.encodeProgramInputs(bits)
	if err != nil {
		t.Fatal(err)
	}
	outLabels, err := cp.evaluateLabels(h, inLabels, pg.Tables)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pg.decode(outLabels)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s %v: garbled output bit %d mismatch", w.Name, cfg.Reorder, i)
		}
	}
}

func TestGarbledProgramsMatchReference(t *testing.T) {
	// The crown-jewel integration: real garbling through reordered,
	// renamed, ESW'd, partitioned programs with a tiny SWW (forcing the
	// OoRW-queue path), across every scheduling mode.
	for _, w := range []workloads.Workload{
		workloads.DotProduct(4, 8),
		workloads.Hamming(64),
		workloads.Millionaire(16),
		workloads.Mersenne(4, 2),
		workloads.ReLU(4, 16),
	} {
		for _, mode := range []ReorderMode{Baseline, FullReorder, SegmentReorder} {
			w, mode := w, mode
			t.Run(w.Name+"/"+mode.String(), func(t *testing.T) {
				runGarbled(t, w, smallCfg(mode), 5)
			})
		}
	}
}

func TestGarbledProgramFloat(t *testing.T) {
	// Floating-point gradient descent under garbling: exercises INV
	// lowering (synthetic const-one wire) through the garbled path.
	runGarbled(t, workloads.GradDesc(2, 1), smallCfg(FullReorder), 3)
}

func TestGarbledCorruptTableQueueDetected(t *testing.T) {
	w := workloads.Millionaire(8)
	c := w.Build()
	cp, err := Compile(c, smallCfg(FullReorder))
	if err != nil {
		t.Fatal(err)
	}
	h := gc.RekeyedHasher{}
	pg, err := cp.garble(h, label.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	g, e := w.Inputs(2)
	bits, _ := cp.InputBits(c, g, e)
	inLabels, _ := pg.encodeProgramInputs(bits)

	// Corrupt both rows of every table: at least one corrupted row is
	// guaranteed to be selected by some gate's colour bits.
	for gq := range pg.Tables {
		for i := range pg.Tables[gq] {
			pg.Tables[gq][i].TE.Hi ^= 1 << 30
			pg.Tables[gq][i].TG.Lo ^= 1 << 7
		}
	}
	outLabels, err := cp.evaluateLabels(h, inLabels, pg.Tables)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pg.decode(outLabels); err == nil {
		t.Fatal("corrupted table queue went undetected")
	}
}

func TestGarbledTableQueueLengthChecked(t *testing.T) {
	w := workloads.Millionaire(8)
	c := w.Build()
	cp, err := Compile(c, smallCfg(FullReorder))
	if err != nil {
		t.Fatal(err)
	}
	h := gc.RekeyedHasher{}
	pg, err := cp.garble(h, label.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	g, e := w.Inputs(2)
	bits, _ := cp.InputBits(c, g, e)
	inLabels, _ := pg.encodeProgramInputs(bits)
	// Truncate a non-empty queue.
	for gq := range pg.Tables {
		if len(pg.Tables[gq]) > 0 {
			pg.Tables[gq] = pg.Tables[gq][:len(pg.Tables[gq])-1]
			break
		}
	}
	if _, err := cp.evaluateLabels(h, inLabels, pg.Tables); err == nil {
		t.Fatal("truncated table queue accepted")
	}
}

// TestGarbledDecodeBitsMatchColours: point-and-permute decoding, the
// colour of each evaluated output label XOR its decode bit, gives the
// same plaintext as matching the label against both valid labels.
func TestGarbledDecodeBitsMatchColours(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	cp, err := Compile(c, smallCfg(Baseline))
	if err != nil {
		t.Fatal(err)
	}
	h := gc.RekeyedHasher{}
	pg, err := cp.garble(h, label.NewSource(4))
	if err != nil {
		t.Fatal(err)
	}
	g, e := w.Inputs(4)
	bits, _ := cp.InputBits(c, g, e)
	inLabels, _ := pg.encodeProgramInputs(bits)
	outLabels, err := cp.evaluateLabels(h, inLabels, pg.Tables)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pg.decode(outLabels)
	if err != nil {
		t.Fatal(err)
	}
	d := pg.decodeBits()
	for i, l := range outLabels {
		if got := l.Colour()^d[i] == 1; got != want[i] {
			t.Fatalf("output %d: colour decoding gives %v, label match %v", i, got, want[i])
		}
	}
}
