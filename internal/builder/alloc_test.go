package builder

import "testing"

// TestFoldsDoNotAllocate: constant checks, cached complements and gates
// that fold away touch no heap.
func TestFoldsDoNotAllocate(t *testing.T) {
	b := New()
	x := b.GarblerInputs(2)
	nx := b.NOT(x[0])
	zero, one := b.Const(false), b.Const(true)
	allocs := testing.AllocsPerRun(100, func() {
		b.IsConst(x[0])
		b.NOT(x[0])
		b.NOT(nx)
		b.AND(zero, x[1])
		b.AND(x[1], one)
		b.AND(x[0], nx)
		b.XOR(one, zero)
		b.XOR(x[1], zero)
		b.XOR(one, x[0]) // NOT(x[0]), cached
	})
	if allocs != 0 {
		t.Fatalf("folds allocated %.0f times per run, want 0", allocs)
	}
}

// TestEmitAllocatesPerChunk: emitting 1<<16 gates allocates per gate
// chunk, not per gate.
func TestEmitAllocatesPerChunk(t *testing.T) {
	const gates = 1 << 16
	allocs := testing.AllocsPerRun(4, func() {
		b := New()
		x := b.GarblerInputs(2)
		for i := 0; i < gates; i++ {
			b.XOR(x[0], x[1])
		}
	})
	// Nine chunks (256 doubling to 65536) hold 1<<16 gates; the rest is
	// the builder, its inputs and the chunk list.
	if allocs > 24 {
		t.Fatalf("%d gates took %.0f allocations, want at most 24", gates, allocs)
	}
}
