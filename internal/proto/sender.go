package proto

import (
	"io"
	"sync"
	"time"

	"haac/internal/gc"
)

// The table stream is decoupled from garbling, the way HAAC feeds its
// gate engines through queues (§3.1.4): a GarblerSession's run never
// writes a table itself. Its emit callback only publishes how far the
// run's table arena is final; the session's sender goroutine follows
// that watermark and writes the arena's own bytes to the transport, so
// the garbler is hashing the next segment while the previous one is in
// write(2) and the evaluator is already working on the one before.

// emitFlushTables is the number of pending tables from which the sender
// pushes them to the transport instead of waiting for more: 32 KiB of
// tables. It is a floor, not a size — one write carries everything
// published since the last, so writes grow by themselves when the
// socket is the slow side — and a run's end pushes whatever is left.
const emitFlushTables = 32 << 10 / gc.MaterialSize

// tableSender is a GarblerSession's sender goroutine and the state it
// shares with the session's runs. One run at a time uses it: begin,
// emitted from each emit, drain. Outside begin..drain the goroutine is
// parked and touches nothing.
type tableSender struct {
	stats *Stats
	done  chan struct{} // closed when the goroutine has exited

	mu   sync.Mutex
	work sync.Cond // the goroutine waits: tables due, or close
	idle sync.Cond // drain waits: a write finished

	w       io.Writer     // the run's transport
	arena   []gc.Material // the run's table arena, final below ready
	sent    int           // tables written, skipped by a resume, or abandoned after err
	ready   int           // tables the run has emitted
	ending  bool          // the run is past its last emit: push any rest
	writing bool          // a Write is in flight, outside mu
	err     error         // the run's first write error
	closed  bool
}

// newTableSender starts a sender that accounts its time to stats (nil
// for nowhere).
func newTableSender(stats *Stats) *tableSender {
	if stats == nil {
		stats = new(Stats)
	}
	t := &tableSender{stats: stats, done: make(chan struct{})}
	t.work.L = &t.mu
	t.idle.L = &t.mu
	go t.loop()
	return t
}

// begin opens a run streaming arena to w from table offset from: a
// resumed run's peer already holds the tables below it, so they count as
// sent and nothing is pending until the run has emitted past them.
func (t *tableSender) begin(w io.Writer, arena []gc.Material, from int) {
	t.mu.Lock()
	for t.writing { // left by a run that panicked out before its drain
		t.idle.Wait()
	}
	t.w, t.arena = w, arena
	t.sent, t.ready = from, 0
	t.ending, t.err = false, nil
	t.mu.Unlock()
}

// emitted marks the next n tables of the arena final — the runner's emit
// chunks are consecutive pieces of it — and returns the run's write
// error, if there is one yet: a dead peer stops the garbler at its next
// emit. The mutex is the happens-before edge between the garbler's
// stores into the arena and the sender's reads of it.
func (t *tableSender) emitted(n int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	t.ready += n
	if t.due() {
		t.work.Signal()
	}
	return nil
}

// drain ends the run: it has the sender push the published rest and
// returns once nothing is pending and no Write is in flight, with the
// run's write error. Every Run calls it before touching the transport
// again, on its error paths too.
func (t *tableSender) drain() error {
	start := time.Now()
	t.mu.Lock()
	t.ending = true
	if t.due() {
		t.work.Signal()
	}
	for t.writing || t.due() {
		t.idle.Wait()
	}
	err := t.err
	t.mu.Unlock()
	t.stats.TableDrainWaitNanos.Add(int64(time.Since(start)))
	return err
}

// due reports whether a write should start now. Callers hold mu.
func (t *tableSender) due() bool {
	pending := t.ready - t.sent
	return t.err == nil && pending > 0 && (t.ending || pending >= emitFlushTables)
}

func (t *tableSender) loop() {
	defer close(t.done)
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		for !t.closed && !t.due() {
			t.work.Wait()
		}
		if t.closed {
			return
		}
		w, tables := t.w, t.arena[t.sent:t.ready]
		t.writing = true
		t.mu.Unlock()

		gc.MaterialsToWire(tables)
		start := time.Now()
		_, err := w.Write(gc.MaterialBytes(tables))
		t.stats.TableSendNanos.Add(int64(time.Since(start)))

		t.mu.Lock()
		t.writing = false
		t.sent += len(tables)
		if err != nil {
			t.err = wrapPeer("streaming tables", err)
		}
		t.idle.Signal()
	}
}

// close stops the goroutine and waits for it to exit. No run may be
// open.
func (t *tableSender) close() {
	t.mu.Lock()
	t.closed = true
	t.work.Signal()
	t.mu.Unlock()
	<-t.done
}
