package gc

import (
	"unsafe"

	"haac/internal/aes128"
	"haac/internal/circuit"
	"haac/internal/label"
)

// stepHasher is the optional whole-step form of a hasher: garble or
// evaluate one schedule step — its free gates, then its AND gates with
// their hashes, rows, table and label stores — straight from the plan's
// gate and table-index streams, in one call. It reports whether it ran
// the step; if not it touched nothing, and the runner takes the step in
// Go. Only RekeyedHasher has it, through aes128's step kernels, which run
// on either VAES tier; for every other hasher, and on every other host,
// the runners take a step's free gates in a Go loop and its AND gates one
// at a time.
type stepHasher interface {
	garbleStep(slots []label.L, tables []Material, r *label.L, free, and []circuit.PlanGate, index []int32) bool
	evalStep(slots []label.L, tables []Material, free, and []circuit.PlanGate, index []int32) bool
}

// The step kernels read the runners' memory as it lies: the gate stream
// as aes128.Gate records (the op byte first, XOR as aes128.OpXOR), the slot arena as aes128.Blocks and the tables
// as pairs of them; the transport reads the tables as bytes
// (MaterialBytes). These fail to compile if a layout moves.
var (
	_ [16]byte                               = [unsafe.Sizeof(circuit.PlanGate{})]byte{}
	_ [1]byte                                = [unsafe.Sizeof(circuit.PlanGate{}.Op)]byte{}
	_ [aes128.OpXOR]byte                     = [circuit.XOR]byte{}
	_ [4]byte                                = [unsafe.Offsetof(circuit.PlanGate{}.A)]byte{}
	_ [8]byte                                = [unsafe.Offsetof(circuit.PlanGate{}.B)]byte{}
	_ [12]byte                               = [unsafe.Offsetof(circuit.PlanGate{}.C)]byte{}
	_ [unsafe.Sizeof(aes128.Gate{})]byte     = [unsafe.Sizeof(circuit.PlanGate{})]byte{}
	_ aes128.Block                           = aes128.Block(label.L{})
	_ [unsafe.Sizeof([2]aes128.Block{})]byte = [unsafe.Sizeof(Material{})]byte{}
	_ [unsafe.Sizeof(aes128.Block{})]byte    = [unsafe.Offsetof(Material{}.TE)]byte{}
	_ [MaterialSize]byte                     = [unsafe.Sizeof(Material{})]byte{}
	_ [label.Size / 2]byte                   = [unsafe.Offsetof(label.L{}.Hi)]byte{}
)

// MaterialBytes views tables as the memory they occupy, MaterialSize
// bytes each and no copy: what a transport writes a garbler's arena from
// and reads an evaluator's arena into. On a little-endian host these are
// the wire bytes, exactly what EncodeMaterials writes; on a big-endian
// one the label halves lie reversed, so a sender calls MaterialsToWire
// on the tables first and a receiver MaterialsFromWire on them after
// (endian_*.go; both compile to nothing on little-endian hosts).
func MaterialBytes(tables []Material) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(tables))), len(tables)*MaterialSize)
}

// stepGates views a run of plan gates as the kernels' records.
func stepGates(and []circuit.PlanGate) []aes128.Gate {
	return unsafe.Slice((*aes128.Gate)(unsafe.Pointer(unsafe.SliceData(and))), len(and))
}

// garbleStep implements stepHasher. The kernels check no bounds; the
// runners call this only on a plan that passed stepSafe, with arenas of
// the plan's sizes, one step at a time: a plan step's AND gates never
// write a slot the step reads.
func (RekeyedHasher) garbleStep(slots []label.L, tables []Material, r *label.L, free, and []circuit.PlanGate, index []int32) bool {
	return aes128.GarbleStep((*aes128.Block)(unsafe.SliceData(slots)), (*[2]aes128.Block)(unsafe.Pointer(unsafe.SliceData(tables))),
		(*aes128.Block)(r), stepGates(free), stepGates(and), index)
}

// evalStep implements stepHasher, under garbleStep's conditions.
func (RekeyedHasher) evalStep(slots []label.L, tables []Material, free, and []circuit.PlanGate, index []int32) bool {
	return aes128.EvalStep((*aes128.Block)(unsafe.SliceData(slots)), (*[2]aes128.Block)(unsafe.Pointer(unsafe.SliceData(tables))),
		stepGates(free), stepGates(and), index)
}

// stepFor returns h's whole-step form if it has one and p is safe to run
// through it, nil otherwise.
func stepFor(p *circuit.Plan, h Hasher) stepHasher {
	if sh, ok := h.(stepHasher); ok && stepSafe(p) {
		return sh
	}
	return nil
}

// stepSafe reports whether every index the step kernels would follow
// through p is in range: each gate's slots inside the arena, and each
// AND gate's table index inside both the table stream and the prefix
// NeedTables promises the evaluator at that step. The runners make this
// one O(gates) sweep when they are built, so the unchecked kernels never
// need a per-call check; a plan that fails it runs on the one-gate path,
// where Go's own bounds checks apply.
func stepSafe(p *circuit.Plan) bool {
	slots := uint64(p.NumSlots)
	for i := range p.Gates {
		if g := &p.Gates[i]; uint64(g.A) >= slots || uint64(g.B) >= slots || uint64(g.C) >= slots {
			return false
		}
	}
	for k := 0; k < p.NumSteps(); k++ {
		_, _, index := p.Step(k)
		need := p.NeedTables(k)
		if need > len(p.Tables) {
			return false
		}
		for _, j := range index {
			if j < 0 || int(j) >= need {
				return false
			}
		}
	}
	return true
}
