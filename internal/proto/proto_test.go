package proto

import (
	"net"
	"testing"

	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/ot"
	"haac/internal/workloads"
)

// run2PC executes a full two-party computation over an in-memory pipe.
func run2PC(t *testing.T, c *circuit.Circuit, g, e []bool, opts Options) ([]bool, []bool) {
	t.Helper()
	ga, ev := net.Pipe()
	defer ga.Close()
	defer ev.Close()

	type res struct {
		bits []bool
		err  error
	}
	gch := make(chan res, 1)
	go func() {
		bits, err := RunGarbler(ga, c, g, opts)
		gch <- res{bits, err}
	}()
	ebits, err := RunEvaluator(ev, c, e, opts)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	gr := <-gch
	if gr.err != nil {
		t.Fatalf("garbler: %v", gr.err)
	}
	return gr.bits, ebits
}

func TestTwoPartyWorkloadsInsecureOT(t *testing.T) {
	for _, w := range workloads.VIPSuiteSmall() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if w.Name == "BubbSt" || w.Name == "GradDesc" || w.Name == "Triangle" {
				t.Skip("large; 2PC streaming covered by smaller workloads")
			}
			c := w.Build()
			g, e := w.Inputs(5)
			want := w.Reference(g, e)
			for _, workers := range []int{1, 4} {
				gbits, ebits := run2PC(t, c, g, e, Options{OT: ot.Insecure, Seed: 9, Workers: workers})
				for i := range want {
					if gbits[i] != want[i] || ebits[i] != want[i] {
						t.Fatalf("workers=%d: output bit %d mismatch", workers, i)
					}
				}
			}
		})
	}
}

func TestTwoPartyMillionaireDHOT(t *testing.T) {
	// Full cryptographic path: DH OT + re-keyed garbling.
	w := workloads.Millionaire(16)
	c := w.Build()
	g, e := w.Inputs(77)
	want := w.Reference(g, e)
	gbits, ebits := run2PC(t, c, g, e, Options{OT: ot.DH, Seed: 3})
	if gbits[0] != want[0] || ebits[0] != want[0] {
		t.Fatal("millionaires' result mismatch under DH OT")
	}
}

func TestTwoPartyFixedKeyHasher(t *testing.T) {
	w := workloads.AddN(16)
	c := w.Build()
	g, e := w.Inputs(4)
	want := w.Reference(g, e)
	// One batched fixed-key hasher is shared by all of a runner's workers.
	for _, workers := range []int{1, 4} {
		opts := Options{OT: ot.Insecure, Seed: 5, Workers: workers, Hasher: gc.NewFixedKeyHasher([16]byte{7})}
		gbits, _ := run2PC(t, c, g, e, opts)
		for i := range want {
			if gbits[i] != want[i] {
				t.Fatalf("workers=%d: fixed-key hasher 2PC mismatch", workers)
			}
		}
	}
}

func TestTwoPartyHammingIKNPOT(t *testing.T) {
	// OT extension end to end: a workload with enough evaluator input
	// bits that extension actually matters.
	w := workloads.Hamming(512)
	c := w.Build()
	g, e := w.Inputs(21)
	want := w.Reference(g, e)
	gbits, ebits := run2PC(t, c, g, e, Options{OT: ot.IKNP, Seed: 12})
	for i := range want {
		if gbits[i] != want[i] || ebits[i] != want[i] {
			t.Fatalf("output bit %d mismatch under IKNP OT", i)
		}
	}
}

func TestTransferStats(t *testing.T) {
	w := workloads.DotProduct(8, 16)
	c := w.Build()
	g, e := w.Inputs(31)
	stats := &Stats{}
	run2PC(t, c, g, e, Options{OT: ot.Insecure, Seed: 17, Stats: stats})
	// The garbler ships at least all tables (32 B per AND).
	minBytes := int64(32 * func() int { a, _, _ := c.CountOps(); return a }())
	if stats.BytesSent.Load() < minBytes {
		t.Fatalf("garbler sent %d bytes, tables alone are %d", stats.BytesSent.Load(), minBytes)
	}
	if stats.Duration() <= 0 {
		t.Fatal("no duration recorded")
	}
	if stats.Throughput() <= 0 {
		t.Fatal("no throughput")
	}
}
