package circuit

import (
	"math/rand"
	"testing"
)

func TestDigestStableAndSensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := RandomCircuit(rng)
	d1 := Digest(c)
	d2 := Digest(c.Clone())
	if d1 != d2 {
		t.Fatal("digest differs between a circuit and its clone")
	}

	// Any structural change must move the digest.
	mutations := []func(m *Circuit){
		func(m *Circuit) { m.Gates = append(m.Gates, m.Gates[0]) },
		func(m *Circuit) { m.GarblerInputs, m.EvaluatorInputs = m.GarblerInputs+1, m.EvaluatorInputs-1 },
		func(m *Circuit) { m.Outputs[0] ^= 1 },
		func(m *Circuit) { m.Outputs = m.Outputs[:len(m.Outputs)-1] },
		func(m *Circuit) { m.Gates = m.Gates[:len(m.Gates)-1] },
		func(m *Circuit) { m.Gates[len(m.Gates)-1].A ^= 1 },
		func(m *Circuit) {
			g := &m.Gates[len(m.Gates)-1]
			if g.Op == AND {
				g.Op = XOR
			} else {
				g.Op = AND
			}
		},
	}
	for i, mut := range mutations {
		m := c.Clone()
		mut(m)
		if Digest(m) == d1 {
			t.Errorf("mutation %d did not change the digest", i)
		}
	}
}

func TestDigestIgnoresINVSecondInput(t *testing.T) {
	// INV gates ignore B at execution time, so the digest must not
	// depend on whatever the builder left there.
	mk := func(b Wire) *Circuit {
		return &Circuit{
			GarblerInputs: 2,
			Outputs:       []Wire{2},
			Gates:         []Gate{{Op: INV, A: 0, B: b}},
		}
	}
	if Digest(mk(0)) != Digest(mk(1)) {
		t.Fatal("digest depends on the ignored B input of an INV gate")
	}
}

func TestDigestDistinguishesRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[[32]byte]bool{}
	for i := 0; i < 50; i++ {
		d := Digest(RandomCircuit(rng))
		if seen[d] {
			t.Fatalf("digest collision at circuit %d", i)
		}
		seen[d] = true
	}
}
