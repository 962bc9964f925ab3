package builder

import "testing"

// truth is a wire's value under every assignment of up to 8 inputs: bit
// a is the wire's value when input i is bit i of a.
type truth [4]uint64

func (t truth) bit(a int) bool { return t[a/64]>>(a%64)&1 == 1 }

// FuzzBuilderFolds: a byte script drives XOR, AND, NOT, OR, MUX and
// Const over a pool of wires that starts with the inputs and grows with
// every result, so constants, complements and repeated operands meet the
// folds. Each wire carries a plaintext truth table; the built circuit
// must validate and agree with it on every input assignment.
//
// Script: byte 0 picks the input count (1 + b%8) and how many of them
// the garbler owns; then 4-byte ops [op, i, j, k] with operands taken
// mod the pool size. Op%7 is XOR, AND, NOT, OR, MUX, Const(i odd), or
// Output(i). The last pool wire is always an output.
func FuzzBuilderFolds(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		nIn := 1 + int(script[0]%8)
		nG := int(script[0]/8) % (nIn + 1)
		b := New()
		pool := append(append([]Wire{}, b.GarblerInputs(nG)...), b.EvaluatorInputs(nIn-nG)...)
		var tts []truth
		for i := range pool {
			var tt truth
			for a := 0; a < 256; a++ {
				if a>>i&1 == 1 {
					tt[a/64] |= 1 << (a % 64)
				}
			}
			tts = append(tts, tt)
		}
		var outputs []int
		ops := script[1:]
		for len(ops) >= 4 && len(pool) < 200 {
			op, i, j, k := ops[0]%7, int(ops[1])%len(pool), int(ops[2])%len(pool), int(ops[3])%len(pool)
			ops = ops[4:]
			x, y, s := pool[i], pool[j], pool[k]
			tx, ty, ts := tts[i], tts[j], tts[k]
			var w Wire
			var tw truth
			switch op {
			case 0:
				w = b.XOR(x, y)
				for n := range tw {
					tw[n] = tx[n] ^ ty[n]
				}
			case 1:
				w = b.AND(x, y)
				for n := range tw {
					tw[n] = tx[n] & ty[n]
				}
			case 2:
				w = b.NOT(x)
				for n := range tw {
					tw[n] = ^tx[n]
				}
			case 3:
				w = b.OR(x, y)
				for n := range tw {
					tw[n] = tx[n] | ty[n]
				}
			case 4:
				w = b.MUX(s, x, y)
				for n := range tw {
					tw[n] = ts[n]&tx[n] | ^ts[n]&ty[n]
				}
			case 5:
				w = b.Const(i&1 == 1)
				if i&1 == 1 {
					tw = truth{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
				}
			case 6:
				b.Output(x)
				outputs = append(outputs, i)
				continue
			}
			if isConst, v := b.IsConst(w); isConst {
				for a := 0; a < 1<<nIn; a++ {
					if tw.bit(a) != v {
						t.Fatalf("op %d folded to constant %v, but the wire is %v under assignment %#x", op, v, !v, a)
					}
				}
			}
			pool, tts = append(pool, w), append(tts, tw)
		}
		b.Output(pool[len(pool)-1])
		outputs = append(outputs, len(pool)-1)

		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		in := make([]bool, nIn)
		for a := 0; a < 1<<nIn; a++ {
			for i := range in {
				in[i] = a>>i&1 == 1
			}
			got, err := c.Eval(in[:nG], in[nG:])
			if err != nil {
				t.Fatal(err)
			}
			for o, p := range outputs {
				if got[o] != tts[p].bit(a) {
					t.Fatalf("output %d (pool wire %d) = %v under assignment %#x, shadow says %v",
						o, p, got[o], a, !got[o])
				}
			}
		}
	})
}
