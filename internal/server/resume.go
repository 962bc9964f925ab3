package server

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
)

// Mid-run resume: garbling is a pure function of the label-source state
// at the start of a run, so a broken transfer does not have to replay
// from scratch. Before each integrity-tier run the server checkpoints
// the run's seed under an opaque random token and sends the token with
// the ack; if the transfer breaks, the client redials, presents the
// token and the count of tables it already holds verified, and the
// garbler re-emits only the remainder. The seed itself never crosses
// the wire — it would reveal every label of the run — and tokens are
// unguessable 64-bit values from crypto/rand.

// maxResumeEntries bounds the checkpoint store; beyond it the oldest
// checkpoint is evicted (its run then replays in full — resume is an
// optimization, never a correctness requirement).
const maxResumeEntries = 1024

// resumeEntry is one checkpointed run.
type resumeEntry struct {
	id   string // circuit the run belongs to
	seed uint64 // label-source state the run garbled from
	and  int    // table count, bounding valid resume offsets
}

// resumeStore is a bounded token→checkpoint map with FIFO eviction.
// Safe for concurrent use; entries outlive the session that created
// them, because the resume arrives on a fresh connection.
type resumeStore struct {
	mu      sync.Mutex
	entries map[uint64]resumeEntry
	order   []uint64 // the live tokens, oldest first
}

func (rs *resumeStore) put(token uint64, e resumeEntry) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.entries == nil {
		rs.entries = make(map[uint64]resumeEntry)
	}
	if len(rs.order) >= maxResumeEntries {
		delete(rs.entries, rs.order[0])
		rs.order = slices.Delete(rs.order, 0, 1)
	}
	rs.entries[token] = e
	rs.order = append(rs.order, token)
}

// get peeks a checkpoint without removing it: a resume that breaks
// mid-stream may be resumed again from a later offset.
func (rs *resumeStore) get(token uint64) (resumeEntry, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	e, ok := rs.entries[token]
	return e, ok
}

// drop discards a checkpoint once its run completed.
func (rs *resumeStore) drop(token uint64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	delete(rs.entries, token)
	if i := slices.Index(rs.order, token); i >= 0 {
		rs.order = slices.Delete(rs.order, i, i+1)
	}
}

// byteBudget enforces Config.MaxRunBytes dynamically: it sits between
// the instrumented connection (on the server, its read buffer) and the
// frame codec, charging every byte in both directions against the
// per-op limit, the op's frame included — both ends charge a run the
// same bytes. A breach surfaces as a
// typed ErrOverBudget from whatever protocol step crossed it — a
// permanent error, because replaying the same run meets the same
// budget. A run that carries an in-run pool fill moves the fill's bytes
// on a second goroutine while the run's own go the other way, so the
// count is atomic; the op's limit is raised by exactly those bytes,
// which both ends know (proto.FillWireBytes: on the integrity tier with
// their frame headers, since the budget sits under the codec), so a run
// that fit the budget without its fill still fits with it.
type byteBudget struct {
	inner io.ReadWriter
	limit int64 // the configured per-op bound
	max   int64 // this op's bound: limit plus the bytes of its fill
	used  atomic.Int64
}

// reset starts a new op's accounting.
func (b *byteBudget) reset() {
	b.max = b.limit
	b.used.Store(0)
}

// raise makes room in the current op for an in-run fill of n bytes;
// call it before the fill starts.
func (b *byteBudget) raise(n int64) { b.max += n }

func (b *byteBudget) charge(n int) error {
	if used := b.used.Add(int64(n)); used > b.max {
		return fmt.Errorf("%w: run transferred %d bytes, budget %d", ErrOverBudget, used, b.max)
	}
	return nil
}

func (b *byteBudget) Read(p []byte) (int, error) {
	n, err := b.inner.Read(p)
	if cerr := b.charge(n); cerr != nil {
		// The bytes are spent and the op with them. Report none, so a
		// caller that asked for exactly n (io.ReadFull) cannot take the
		// breach for a completed read.
		return 0, cerr
	}
	return n, err
}

func (b *byteBudget) Write(p []byte) (int, error) {
	if err := b.charge(len(p)); err != nil {
		return 0, err
	}
	return b.inner.Write(p)
}
