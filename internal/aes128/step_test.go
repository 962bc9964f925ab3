package aes128

import (
	"math/rand"
	"testing"
)

// The step kernels against a half-gate reference written out from the
// definition over crypto/aes, on every tier the host can run: the VAES
// tier must take the even prefix of a run and produce the reference's
// tables and labels, every other tier must take nothing and touch
// nothing. internal/gc tests the same kernels against its own
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

func TestStepKernelsMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{0, 1, 2, 3, 8, 9} {
		const inputs, nTables = 12, 40
		slots := make([]Block, inputs+n)
		for i := range slots {
			slots[i] = randBlock(rng)
		}
		r := randBlock(rng)
		r.Lo |= 1
		gates, index := make([]Gate, n), make([]int32, n)
		for i, j := range rng.Perm(nTables)[:n] {
			gates[i] = Gate{A: uint32(rng.Intn(inputs)), B: uint32(rng.Intn(inputs)), C: uint32(inputs + i)}
			index[i] = int32(j)
		}
		if n > 0 {
			index[0] = nTables - 1
			gates[0].B = gates[0].A
		}
		tables := make([][2]Block, nTables)
		for i := range tables {
			tables[i] = [2]Block{randBlock(rng), randBlock(rng)}
		}

		eachTier(func() {
			took := 0
			if liveTier == tierVAES {
				took = n &^ 1
			}
			// Garbler: zero-labels in, rows and zero-labels out.
			wantSlots, wantTables := append([]Block(nil), slots...), append([][2]Block(nil), tables...)
			for i := 0; i < took; i++ {
				g, j := gates[i], index[i]
				wantTables[j], wantSlots[g.C] = refGarble(t, slots[g.A], slots[g.B], r, uint64(j))
			}
			gotSlots, gotTables := append([]Block(nil), slots...), append([][2]Block(nil), tables...)
			if got := GarbleStep(&gotSlots[0], &gotTables[0], &r, gates, index); got != took {
				t.Fatalf("%s: GarbleStep took %d of %d gates, want %d", Backend(), got, n, took)
			}
			checkStep(t, "GarbleStep", n, gotSlots, wantSlots, gotTables, wantTables)

			// Evaluator: active labels in (here the stored ones, with
			// whatever rows the tables hold), active labels out.
			copy(wantSlots, slots)
			copy(wantTables, tables)
			for i := 0; i < took; i++ {
				g, j := gates[i], index[i]
				wantSlots[g.C] = refEval(t, slots[g.A], slots[g.B], tables[j], uint64(j))
			}
			copy(gotSlots, slots)
			copy(gotTables, tables)
			if got := EvalStep(&gotSlots[0], &gotTables[0], gates, index); got != took {
				t.Fatalf("%s: EvalStep took %d of %d gates, want %d", Backend(), got, n, took)
			}
			checkStep(t, "EvalStep", n, gotSlots, wantSlots, gotTables, wantTables)
		})
	}
}

// checkStep compares a whole arena and table stream, so a store to a
// slot or table no gate names fails too.
func checkStep(t *testing.T, what string, n int, gotSlots, wantSlots []Block, gotTables, wantTables [][2]Block) {
	t.Helper()
	for i := range wantSlots {
		if gotSlots[i] != wantSlots[i] {
			t.Fatalf("%s: %s over %d gates: slot %d = %v, want %v", Backend(), what, n, i, gotSlots[i], wantSlots[i])
		}
	}
	for i := range wantTables {
		if gotTables[i] != wantTables[i] {
			t.Fatalf("%s: %s over %d gates: table %d = %v, want %v", Backend(), what, n, i, gotTables[i], wantTables[i])
		}
	}
}

// TestStepKernelsNoAllocs: like every entry point, they may not allocate.
func TestStepKernelsNoAllocs(t *testing.T) {
	slots, tables := make([]Block, 4), make([][2]Block, 2)
	gates, index := []Gate{{A: 0, B: 1, C: 2}, {A: 1, B: 0, C: 3}}, []int32{1, 0}
	r := Block{Lo: 1}
	eachTier(func() {
		if avg := testing.AllocsPerRun(100, func() {
			GarbleStep(&slots[0], &tables[0], &r, gates, index)
			EvalStep(&slots[0], &tables[0], gates, index)
		}); avg != 0 {
			t.Fatalf("%s: step kernels allocate %.1f times per call pair", Backend(), avg)
		}
	})
}

// stepBench is a run of 1024 independent gates over an arena about the
// size of a segment's live set.
func stepBench() (slots []Block, tables [][2]Block, gates []Gate, index []int32) {
	const n = 1024
	slots, tables = make([]Block, 3*n), make([][2]Block, n)
	gates, index = make([]Gate, n), make([]int32, n)
	for i := range gates {
		gates[i] = Gate{A: uint32(i), B: uint32(n + i*7%n), C: uint32(2*n + i)}
		index[i] = int32(i)
	}
	return
}

// BenchmarkGarbleStep: whole garbled AND gates through the step kernel;
// ns/op is per gate.
func BenchmarkGarbleStep(b *testing.B) {
	slots, tables, gates, index := stepBench()
	r := Block{Lo: 1, Hi: 2}
	if GarbleStep(&slots[0], &tables[0], &r, gates, index) == 0 {
		b.Skipf("no step kernel on the %s tier", Backend())
	}
	for i := 0; i < b.N; i += len(gates) {
		GarbleStep(&slots[0], &tables[0], &r, gates, index)
	}
}

// BenchmarkEvalStep is the evaluator's counterpart.
func BenchmarkEvalStep(b *testing.B) {
	slots, tables, gates, index := stepBench()
	if EvalStep(&slots[0], &tables[0], gates, index) == 0 {
		b.Skipf("no step kernel on the %s tier", Backend())
	}
	for i := 0; i < b.N; i += len(gates) {
		EvalStep(&slots[0], &tables[0], gates, index)
	}
}
