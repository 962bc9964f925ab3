package proto

import "sync"

// Pooled wire slabs: the label blocks that cross the transport — the
// garbler's active inputs, the evaluator's copy of them — are staged
// through one of these buffers, encoded in bulk with the label slab codec
// and moved in one call, instead of trickling through per-label 16-byte
// writes with their own short-lived buffers. Tables do not come through
// here: they travel as the bytes of the runners' own arenas (sender.go,
// EvaluatorSession.readTables).

// slabBytes is the byte size of a pooled slab, and of one integrity
// frame's payload (frame.go): 512 tables' worth.
const slabBytes = 16 << 10

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
