package server

import (
	"fmt"
	"io"
	"slices"
	"sync"
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
// the instrumented connection and the frame codec, charging every byte
// in both directions against the per-run limit. A breach surfaces as a
// typed ErrOverBudget from whatever protocol step crossed it — a
// permanent error, because replaying the same run meets the same
// budget.
type byteBudget struct {
	inner io.ReadWriter
	limit int64
	used  int64
}

// reset starts a new run's accounting.
func (b *byteBudget) reset() { b.used = 0 }

func (b *byteBudget) charge(n int) error {
	b.used += int64(n)
	if b.used > b.limit {
		return fmt.Errorf("%w: run transferred %d bytes, budget %d", ErrOverBudget, b.used, b.limit)
	}
	return nil
}

func (b *byteBudget) Read(p []byte) (int, error) {
	n, err := b.inner.Read(p)
	if cerr := b.charge(n); err == nil {
		err = cerr
	}
	return n, err
}

func (b *byteBudget) Write(p []byte) (int, error) {
	if err := b.charge(len(p)); err != nil {
		return 0, err
	}
	return b.inner.Write(p)
}
