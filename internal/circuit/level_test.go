package circuit

import (
	"math/rand"
	"slices"
	"testing"
)

func TestLevels(t *testing.T) {
	c := buildTestCircuit()
	prefix := buildTestCircuit() // ends in its second AND gate
	prefix.Gates, prefix.Outputs = prefix.Gates[:4], []Wire{7}
	for _, tc := range []struct {
		name  string
		c     *Circuit
		order []int32
		cuts  []int32
		want  []int32
		top   int32
	}{
		{"gate order", c, nil, nil, []int32{1, 1, 2, 3, 2}, 3},
		{"explicit gate order", c, []int32{0, 1, 2, 3, 4}, nil, []int32{1, 1, 2, 3, 2}, 3},
		// The levels follow the gates: lvl[pos] is order[pos]'s level.
		{"permuted order", c, []int32{1, 0, 4, 2, 3}, nil, []int32{1, 1, 2, 2, 3}, 3},
		{"permuted order, cut", c, []int32{1, 0, 4, 2, 3}, []int32{1}, []int32{1, 2, 3, 3, 4}, 4},
		// The plan's cuts at one AND per segment: after gates 1 and 3.
		{"plan cuts", c, nil, []int32{2, 4}, []int32{1, 1, 2, 3, 4}, 4},
		// A cut at len(gates) starts a segment with no gates in it.
		{"cut at the end", c, nil, []int32{5}, []int32{1, 1, 2, 3, 2}, 3},
		{"prefix, plan cuts", prefix, nil, []int32{2, 4}, []int32{1, 1, 2, 3}, 3},
		{"consecutive cuts", c, nil, []int32{1, 2}, []int32{1, 2, 3, 4, 3}, 4},
		{"repeated cut", c, nil, []int32{3, 3}, []int32{1, 1, 2, 3, 3}, 3},
		{"cut at 0", c, nil, []int32{0}, []int32{1, 1, 2, 3, 2}, 3},
	} {
		lvl, top := Levels(tc.c, tc.order, tc.cuts)
		if !slices.Equal(lvl, tc.want) || top != tc.top {
			t.Errorf("%s: levels %v top %d, want %v top %d", tc.name, lvl, top, tc.want, tc.top)
		}
	}
	// The plan emits the cut at len(gates) when the last gate closes a
	// segment, and its steps are those levels.
	if s := scheduleSegments(prefix, 1); len(s.steps) != 3 {
		t.Errorf("prefix at one AND per segment: %d steps, want 3", len(s.steps))
	}
	if lvl, top := Levels(&Circuit{GarblerInputs: 1, Outputs: []Wire{0}}, nil, nil); len(lvl) != 0 || top != 0 {
		t.Errorf("no gates: levels %v top %d", lvl, top)
	}
}

func TestPlanIgnoresINVOperandB(t *testing.T) {
	// RandomCircuit gives INV gates a random, written B wire; the builder
	// always emits B = 0. A schedule that read it would tell them apart.
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 200; trial++ {
		c := RandomCircuit(rng)
		z := c.Clone()
		for i := range z.Gates {
			if z.Gates[i].Op == INV {
				z.Gates[i].B = 0
			}
		}
		for _, segANDs := range []int{1, 7, segmentANDs} {
			p, q := mustPlanSegmented(t, c, segANDs), mustPlanSegmented(t, z, segANDs)
			if !slices.Equal(p.Gates, q.Gates) || !slices.Equal(p.Tables, q.Tables) ||
				!slices.Equal(p.steps, q.steps) || p.NumSlots != q.NumSlots ||
				!slices.Equal(p.OutputSlots, q.OutputSlots) || p.PeakLive != q.PeakLive {
				t.Fatalf("trial %d, %d ANDs per segment: the plan depends on INV's B operand", trial, segANDs)
			}
		}
	}
}
