package aes128

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The step kernels against a half-gate reference written out from the
// definition over crypto/aes, on every tier the host can run: both VAES
// tiers must run the whole step and produce the reference's tables and
// labels, every other tier must run nothing and touch nothing. internal/gc tests the same kernels against its own
// garbleRows/evalRows, the code they replace.

func xor(a, b Block) Block { return Block{Lo: a.Lo ^ b.Lo, Hi: a.Hi ^ b.Hi} }

// refHash is H(x, t) = AES_{t ‖ ^t}(x) ^ x.
func refHash(t testing.TB, x Block, tweak uint64) Block {
	return xor(stdEncrypt(t, Block{Lo: tweak, Hi: ^tweak}, x), x)
}

// refGarble is one garbled half-gate AND: rows and output zero-label.
func refGarble(t testing.TB, a0, b0, r Block, j uint64) (rows [2]Block, c0 Block) {
	ha0, ha1 := refHash(t, a0, 2*j), refHash(t, xor(a0, r), 2*j)
	hb0, hb1 := refHash(t, b0, 2*j+1), refHash(t, xor(b0, r), 2*j+1)
	tg, wg := xor(ha0, ha1), ha0
	if b0.Lo&1 == 1 {
		tg = xor(tg, r)
	}
	if a0.Lo&1 == 1 {
		wg = xor(wg, tg)
	}
	te, we := xor(xor(hb0, hb1), a0), hb0
	if b0.Lo&1 == 1 {
		we = xor(we, xor(te, a0))
	}
	return [2]Block{tg, te}, xor(wg, we)
}

// refEval is one evaluated half-gate AND.
func refEval(t testing.TB, a, b Block, rows [2]Block, j uint64) Block {
	wg, we := refHash(t, a, 2*j), refHash(t, b, 2*j+1)
	if a.Lo&1 == 1 {
		wg = xor(wg, rows[0])
	}
	if b.Lo&1 == 1 {
		we = xor(we, xor(rows[1], a))
	}
	return xor(wg, we)
}

// stepCase is one schedule step over a slot arena and a table stream:
// free gates, then independent AND gates with their table indices.
type stepCase struct {
	slots     []Block
	tables    [][2]Block
	r         Block
	free, and []Gate
	index     []int32
}

// randomStep builds nFree free gates and nAnd AND gates over inputs
// input slots. Free gate i may read any input or earlier free output and
// writes slot inputs+i; AND gate i reads inputs and free outputs and
// writes inputs+nFree+i, so outputs are distinct. Table indices are
// distinct and scattered over a stream longer than the step, the first
// at its end.
func randomStep(rng *rand.Rand, inputs, nFree, nAnd int) *stepCase {
	s := &stepCase{r: randBlock(rng), slots: make([]Block, inputs+nFree+nAnd), tables: make([][2]Block, nAnd+23)}
	s.r.Lo |= 1
	for i := range s.slots {
		s.slots[i] = randBlock(rng)
	}
	for i := range s.tables {
		s.tables[i] = [2]Block{randBlock(rng), randBlock(rng)}
	}
	for i := 0; i < nFree; i++ {
		g := Gate{A: uint32(rng.Intn(inputs + i)), B: uint32(rng.Intn(inputs + i)), C: uint32(inputs + i)}
		if rng.Intn(3) == 0 {
			g.Op, g.B = 2, g.A // INV
		}
		s.free = append(s.free, g)
	}
	for i, j := range rng.Perm(len(s.tables))[:nAnd] {
		s.and = append(s.and, Gate{A: uint32(rng.Intn(inputs + nFree)), B: uint32(rng.Intn(inputs + nFree)), C: uint32(inputs + nFree + i)})
		s.index = append(s.index, int32(j))
	}
	if nAnd > 0 {
		s.index[0] = int32(len(s.tables) - 1)
		s.and[0].B = s.and[0].A
	}
	return s
}

// check runs the step through both kernels on every tier the host can
// run, against the definition: on both VAES tiers each kernel must run
// the whole step and leave the reference's arena and tables, on every
// other tier it must report false and touch nothing.
func (s *stepCase) check(t testing.TB) {
	t.Helper()
	// Garbler: zero-labels in, rows and zero-labels out.
	garbledSlots, garbledTables := append([]Block(nil), s.slots...), append([][2]Block(nil), s.tables...)
	for _, g := range s.free {
		other := s.r
		if g.Op == OpXOR {
			other = garbledSlots[g.B]
		}
		garbledSlots[g.C] = xor(garbledSlots[g.A], other)
	}
	for i, g := range s.and {
		j := s.index[i]
		garbledTables[j], garbledSlots[g.C] = refGarble(t, garbledSlots[g.A], garbledSlots[g.B], s.r, uint64(j))
	}
	// Evaluator: active labels in (here the stored ones, with whatever
	// rows the tables hold), active labels out.
	evaluatedSlots := append([]Block(nil), s.slots...)
	for _, g := range s.free {
		if g.Op == OpXOR {
			evaluatedSlots[g.C] = xor(evaluatedSlots[g.A], evaluatedSlots[g.B])
		} else {
			evaluatedSlots[g.C] = evaluatedSlots[g.A]
		}
	}
	for i, g := range s.and {
		j := s.index[i]
		evaluatedSlots[g.C] = refEval(t, evaluatedSlots[g.A], evaluatedSlots[g.B], s.tables[j], uint64(j))
	}

	eachTier(func() {
		ran := liveTier >= tierVAES
		wantSlots, wantTables := s.slots, s.tables
		if ran {
			wantSlots, wantTables = garbledSlots, garbledTables
		}
		gotSlots, gotTables := append([]Block(nil), s.slots...), append([][2]Block(nil), s.tables...)
		if got := GarbleStep(&gotSlots[0], &gotTables[0], &s.r, s.free, s.and, s.index); got != ran {
			t.Fatalf("%s: GarbleStep ran = %v, want %v", Backend(), got, ran)
		}
		s.compare(t, "GarbleStep", gotSlots, wantSlots, gotTables, wantTables)

		if ran {
			wantSlots, wantTables = evaluatedSlots, s.tables
		}
		copy(gotSlots, s.slots)
		copy(gotTables, s.tables)
		if got := EvalStep(&gotSlots[0], &gotTables[0], s.free, s.and, s.index); got != ran {
			t.Fatalf("%s: EvalStep ran = %v, want %v", Backend(), got, ran)
		}
		s.compare(t, "EvalStep", gotSlots, wantSlots, gotTables, wantTables)
	})
}

// compare checks a whole arena and table stream, so a store to a slot or
// table no gate names fails too.
func (s *stepCase) compare(t testing.TB, what string, gotSlots, wantSlots []Block, gotTables, wantTables [][2]Block) {
	t.Helper()
	for i := range wantSlots {
		if gotSlots[i] != wantSlots[i] {
			t.Fatalf("%s: %s over %d free and %d AND gates: slot %d = %v, want %v", Backend(), what, len(s.free), len(s.and), i, gotSlots[i], wantSlots[i])
		}
	}
	for i := range wantTables {
		if gotTables[i] != wantTables[i] {
			t.Fatalf("%s: %s over %d free and %d AND gates: table %d = %v, want %v", Backend(), what, len(s.free), len(s.and), i, gotTables[i], wantTables[i])
		}
	}
}

// TestStepKernelsMatchDefinition covers every tail of the eight-, four-
// and one-gate stages (0..17 AND gates) and a long step, with and
// without free gates before the ANDs.
func TestStepKernelsMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	lengths := []int{1024}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		randomStep(rng, 12, 0, n).check(t)
		randomStep(rng, 12, 1+n%9, n).check(t)
	}
}

// FuzzStepKernels: arbitrary labels, offset, rows, free-gate ops and
// wiring through both kernels and the definition, steps of 0..17 AND
// gates. The wiring stays inside what the kernels' callers verify.
func FuzzStepKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() uint64 {
			var b [8]byte
			data = data[copy(b[:], data):]
			return binary.LittleEndian.Uint64(b[:])
		}
		shape := next()
		s := randomStep(rand.New(rand.NewSource(int64(shape>>16))), 8, int(shape>>8%6), int(shape%18))
		s.r = Block{Lo: next() | 1, Hi: next()}
		for i := range s.slots {
			s.slots[i] = Block{Lo: next(), Hi: next()}
		}
		for i := range s.tables {
			s.tables[i] = [2]Block{{Lo: next(), Hi: next()}, {Lo: next(), Hi: next()}}
		}
		s.check(t)
	})
}

// TestStepKernelsNoAllocs: like every entry point, they may not allocate.
func TestStepKernelsNoAllocs(t *testing.T) {
	slots, tables := make([]Block, 5), make([][2]Block, 2)
	free := []Gate{{A: 0, B: 1, C: 4}}
	gates, index := []Gate{{A: 0, B: 4, C: 2}, {A: 1, B: 0, C: 3}}, []int32{1, 0}
	r := Block{Lo: 1}
	eachTier(func() {
		if avg := testing.AllocsPerRun(100, func() {
			GarbleStep(&slots[0], &tables[0], &r, free, gates, index)
			EvalStep(&slots[0], &tables[0], free, gates, index)
		}); avg != 0 {
			t.Fatalf("%s: step kernels allocate %.1f times per call pair", Backend(), avg)
		}
	})
}

// stepBench is a run of about 1024 independent gates, in steps of
// perStep, over an arena about the size of a segment's live set.
func stepBench(perStep int) (slots []Block, tables [][2]Block, gates []Gate, index []int32) {
	n := (1024 + perStep - 1) / perStep * perStep
	slots, tables = make([]Block, 3*n), make([][2]Block, n)
	gates, index = make([]Gate, n), make([]int32, n)
	for i := range gates {
		gates[i] = Gate{A: uint32(i), B: uint32(n + i*7%n), C: uint32(2*n + i)}
		index[i] = int32(i)
	}
	return
}

// benchStep times step over every step-kernel tier the host has (lowered
// as eachTier does) and step lengths 8, 27 (serve.tables' mean ANDs per
// step) and 1024, one kernel call per step; ns/op is per gate.
func benchStep(b *testing.B, step func(slots []Block, tables [][2]Block, gates []Gate, index []int32) bool) {
	if hostTier < tierVAES {
		b.Skipf("no step kernel on the %s tier", Backend())
	}
	defer func() { liveTier = hostTier }()
	for tier := tierVAES; tier <= hostTier; tier++ {
		liveTier = tier
		for _, perStep := range []int{8, 27, 1024} {
			b.Run(fmt.Sprintf("%s/step=%d", Backend(), perStep), func(b *testing.B) {
				liveTier = tier
				slots, tables, gates, index := stepBench(perStep)
				for i := 0; i < b.N; i += len(gates) {
					for lo := 0; lo < len(gates); lo += perStep {
						step(slots, tables, gates[lo:lo+perStep], index[lo:lo+perStep])
					}
				}
			})
		}
	}
}

// BenchmarkGarbleStep: whole garbled AND gates through the step kernel.
func BenchmarkGarbleStep(b *testing.B) {
	r := Block{Lo: 1, Hi: 2}
	benchStep(b, func(slots []Block, tables [][2]Block, gates []Gate, index []int32) bool {
		return GarbleStep(&slots[0], &tables[0], &r, nil, gates, index)
	})
}

// BenchmarkEvalStep is the evaluator's counterpart.
func BenchmarkEvalStep(b *testing.B) {
	benchStep(b, func(slots []Block, tables [][2]Block, gates []Gate, index []int32) bool {
		return EvalStep(&slots[0], &tables[0], nil, gates, index)
	})
}
