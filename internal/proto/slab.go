package proto

import (
	"sync"

	"haac/internal/gc"
)

// Pooled wire slabs: every label and table that crosses the transport is
// staged through one of these buffers — encoded in bulk with the label /
// gc slab codecs and written in one call — instead of trickling through
// per-label 16-byte and per-Material 32-byte writes with their own
// short-lived buffers. The pool is shared by both roles, so steady-state
// transport cost is O(1) allocations per flush regardless of circuit
// size.

// slabTables is the table capacity of one pooled slab (16 KiB): large
// enough that slab encoding amortizes to nothing per table, small enough
// to stay cache-resident while it is filled and drained.
const slabTables = 512

// slabBytes is the byte size of a pooled slab.
const slabBytes = slabTables * gc.MaterialSize

var slabPool = sync.Pool{
	New: func() any {
		b := make([]byte, slabBytes)
		return &b
	},
}

// getSlab returns a pooled byte slab of at least n bytes. Slabs larger
// than the pooled size (a huge input-label block, say) are allocated
// fresh but still recycled through the pool for peers of similar size.
func getSlab(n int) *[]byte {
	bp := slabPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:cap(*bp)]
	return bp
}

func putSlab(bp *[]byte) { slabPool.Put(bp) }
