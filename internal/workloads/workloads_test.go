package workloads

import (
	"math"
	"strings"
	"testing"
)

// TestSmallSuiteMatchesReference checks every reduced-size VIP workload
// end to end: build, validate, evaluate on three input seeds, compare
// with the native reference.
func TestSmallSuiteMatchesReference(t *testing.T) {
	for _, w := range VIPSuiteSmall() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			c := w.Build()
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				g, e := w.Inputs(seed)
				got, err := c.Eval(g, e)
				if err != nil {
					t.Fatal(err)
				}
				want := w.Reference(g, e)
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d output bits, reference has %d", seed, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d: output bit %d mismatch", seed, i)
					}
				}
			}
			s := c.ComputeStats()
			t.Logf("%s: %d gates (%.1f%% AND), %d levels, ILP %.0f",
				w.Name, s.Gates, s.ANDPercent, s.Levels, s.ILP)
		})
	}
}

func TestMicroSuiteMatchesReference(t *testing.T) {
	for _, w := range MicroSuite() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if _, err := w.Check(7); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAESCircuitSize(t *testing.T) {
	c := AES128().Build()
	and, xor, inv := c.CountOps()
	// The tower S-box gives ~59 AND x 200 S-boxes ~= 12k AND; the
	// standard Bristol netlist is ~6.4k (it shares key-schedule work).
	// Anything within a small factor keeps Table 5 comparable.
	if and < 5000 || and > 20000 {
		t.Fatalf("AES-128 AND count %d outside expected envelope", and)
	}
	t.Logf("AES-128: %d AND, %d XOR, %d INV", and, xor, inv)
}

func TestReLUShapeMatchesTable2(t *testing.T) {
	// Table 2: ReLU has 2 dependence levels and ~97%% AND gates.
	c := ReLU(32, 32).Build()
	s := c.ComputeStats()
	if s.Levels != 2 {
		t.Fatalf("ReLU levels = %d, want 2", s.Levels)
	}
	if s.ANDPercent < 90 {
		t.Fatalf("ReLU AND%% = %.1f, want > 90", s.ANDPercent)
	}
}

func TestMersenneReferenceSelfConsistent(t *testing.T) {
	// The first outputs of mtRef with full state must be stable across
	// calls (pure function) and depend on the seed.
	a := mtRef(5489, 624, 4)
	b := mtRef(5489, 624, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("mtRef is not deterministic")
		}
	}
	c := mtRef(1234, 624, 4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("mtRef ignores seed")
	}
}

func TestGradDescConverges(t *testing.T) {
	// With enough rounds the learned parameters should approach the
	// generating line y = 0.75x + 0.5. Uses the native reference only.
	w := GradDesc(16, 200)
	g, e := w.Inputs(42)
	out := w.Reference(g, e)
	ws := bitsToWords(out, 32)
	learnedW := float64(f32(uint32(ws[0])))
	learnedB := float64(f32(uint32(ws[1])))
	if learnedW < 0.5 || learnedW > 1.0 {
		t.Fatalf("learned w = %v, want near 0.75", learnedW)
	}
	if learnedB < 0.25 || learnedB > 0.75 {
		t.Fatalf("learned b = %v, want near 0.5", learnedB)
	}
}

func TestTriangleEdgeIndexing(t *testing.T) {
	// Complete graph on 5 vertices has C(5,3)=10 triangles.
	w := TriangleCount(5)
	c := w.Build()
	nEdges := 5 * 4 / 2
	g := make([]bool, nEdges)
	for i := range g {
		g[i] = true
	}
	out, err := c.Eval(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := boolsVal(out); got != 10 {
		t.Fatalf("K5 triangle count = %d, want 10", got)
	}
}

func TestBubbleSortWorstCase(t *testing.T) {
	w := BubbleSort(6, 8)
	c := w.Build()
	// Strictly decreasing input must come out increasing.
	in := []uint64{200, 150, 100, 50, 25, 5}
	g := wordsToBits(in, 8)
	out, err := c.Eval(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := bitsToWords(out, 8)
	for i := 1; i < len(ws); i++ {
		if ws[i-1] > ws[i] {
			t.Fatalf("not sorted: %v", ws)
		}
	}
}

func TestFind(t *testing.T) {
	for _, tc := range []struct {
		name  string
		small bool
		want  int // gates, telling the two suites apart
	}{
		{"hamm", true, len(Hamming(128).Build().Gates)},
		{"Hamm", false, len(Hamming(40960).Build().Gates)},
		{"million-8", false, len(Millionaire(8).Build().Gates)},
	} {
		w, err := Find(tc.name, tc.small)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(w.Build().Gates); got != tc.want {
			t.Errorf("Find(%q, %v): %d gates, want %d", tc.name, tc.small, got, tc.want)
		}
	}
	_, err := Find("nope", true)
	if err == nil || !strings.Contains(err.Error(), "available: BubbSt, ") || !strings.Contains(err.Error(), "Million-8") {
		t.Fatalf("unknown workload error does not list the suites: %v", err)
	}
}

func boolsVal(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

func f32(bits uint32) float32 {
	return math.Float32frombits(bits)
}
