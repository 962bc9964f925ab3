package proto

import (
	"errors"
	"io"
	"sync"
	"time"

	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
)

// The garbler's work is laid out as streams ahead of need, the way HAAC
// feeds its gate engines through queues (§3.1.4). A GarblerSession's
// runs neither garble nor write a table themselves; two goroutines of
// the session's table stream do:
//
//   - the garble goroutine garbles into one of two plan runners. Its
//     runner's emit publishes how far the runner's table arena is final.
//     A run's tables, R, input zero-labels and decode bits depend on
//     neither party's inputs, so the goroutine works one run ahead: once
//     run j is garbled and its tables have begun to stream, it begins
//     and garbles run j+1 into the other runner, while run j's tables
//     drain, the evaluator finishes and the next op travels. Not sooner:
//     run j's input phase (its OT) is on the run's critical path, and on
//     an input-heavy circuit garbling beside it takes the CPU it needs.
//     At most one run is garbled that no op has asked for, and none
//     before the first op. Run j's runner keeps its decode bits and
//     arena until run j ends, so two runners suffice.
//   - the sender goroutine follows the streamed run's watermark and
//     writes its arena's own bytes to the transport, so a run that is
//     not fully garbled yet still streams while garbling finishes.
//
// Label-source draws keep the order of the runs (run j's, then run
// j+1's), so the wire bytes are those of garbling each run when its op
// arrives. A resumed run is garbled by the same goroutine, from its
// recorded seed, on the runner the run ahead does not hold.

// emitFlushTables is the number of pending tables from which the sender
// pushes them to the transport instead of waiting for more: 32 KiB of
// tables. It is a floor, not a size — one write carries everything
// published since the last, so writes grow by themselves when the
// socket is the slow side — and a run's end pushes whatever is left.
const emitFlushTables = 32 << 10 / gc.MaterialSize

// errGarbleStopped is what a runner's emit returns once its run is
// called off: its op failed before the tables streamed, or the session
// is closing.
var errGarbleStopped = errors.New("proto: garbling stopped")

// runner is one of a session's two plan garblers and the run it holds.
// Every field but pg and emit is guarded by the stream's mu. An idle
// runner counts as done.
type runner struct {
	pg    *gc.PlanGarbler // built by the garble goroutine on the runner's first run
	emit  func(tables []gc.Material) error
	seed  uint64 // the label-source state the run begins from
	fresh bool   // the run draws from the session's source; a resume replays a seed
	begun bool   // Begin has drawn R and the input zero-labels
	ready int    // tables emitted: final in pg.Tables()
	done  bool   // garbling has ended, with out or err
	stop  bool   // the run is called off: its emit fails
	out   *gc.Garbled
	err   error
}

// tableStream is a GarblerSession's garble and sender goroutines and the
// state they share with the session's runs. One run at a time streams:
// begin, then drain. Outside begin..drain the sender is parked; outside
// a queued run the garble goroutine is.
type tableStream struct {
	plan   *circuit.Plan
	hasher gc.Hasher
	stats  *Stats
	src    *label.Source // drawn only by the garble goroutine
	runs   [2]runner
	exited sync.WaitGroup

	mu   sync.Mutex
	jobs sync.Cond // the garble goroutine waits: a run queued, or close
	work sync.Cond // the sender waits: tables due, or close
	idle sync.Cond // the session waits: a run begun or ended, a write finished

	queued   *runner // the run the garble goroutine takes next
	ahead    *runner // the fresh run no op has asked for: queued, garbling or garbled
	streamed *runner // the fresh run whose tables have begun to stream, until its garbling ends
	pending  uint64  // the source state the next fresh run not yet queued begins from
	oneRun   bool    // garble no run ahead: a one-shot RunGarbler's session

	w       io.Writer // the streamed run's transport
	cur     *runner   // the streamed run, from begin to drain
	sent    int       // tables written, skipped by a resume, or abandoned after err
	writing bool      // a Write is in flight, outside mu
	err     error     // the streamed run's first write error
	closed  bool
}

// newTableStream starts the goroutines of a session garbling p with h
// from label-source state seed, accounting its time to stats (nil for
// nowhere). A oneRun stream never garbles ahead.
func newTableStream(p *circuit.Plan, h gc.Hasher, seed uint64, stats *Stats, oneRun bool) *tableStream {
	if stats == nil {
		stats = new(Stats)
	}
	t := &tableStream{plan: p, hasher: h, stats: stats, src: label.NewSource(seed), oneRun: oneRun}
	t.pending = t.src.State()
	for i := range t.runs {
		rn := &t.runs[i]
		rn.done = true
		rn.emit = func(tables []gc.Material) error { return t.emitted(rn, len(tables)) }
	}
	t.jobs.L, t.work.L, t.idle.L = &t.mu, &t.mu, &t.mu
	t.exited.Add(2)
	go t.garbleLoop()
	go t.sendLoop()
	return t
}

// queue hands rn to the garble goroutine to garble from seed. Callers
// hold mu, and rn holds no run in progress.
func (t *tableStream) queue(rn *runner, seed uint64, fresh bool) {
	rn.seed, rn.fresh = seed, fresh
	rn.begun, rn.ready, rn.done, rn.stop, rn.out, rn.err = false, 0, false, false, nil, nil
	t.queued = rn
	t.jobs.Signal()
}

// settle waits until rn is idle, which it is unless a Run panicked out
// before its garbling ended. Callers hold mu.
func (t *tableStream) settle(rn *runner) {
	for !rn.done {
		t.idle.Wait()
	}
}

// next returns the runner of the run whose op has just arrived: the
// run garbled ahead, or one queued now when there is none (a session's
// first run, or the first after a run that failed).
func (t *tableStream) next() *runner {
	t.mu.Lock()
	defer t.mu.Unlock()
	rn := t.ahead
	if rn == nil {
		rn = &t.runs[0]
		t.settle(rn)
		t.queue(rn, t.pending, true)
	}
	t.ahead = nil
	return rn
}

// garbleAhead queues the run after the streamed one once that one has
// been garbled. A run whose garbling failed has no successor queued: its
// session's next op queues one. Callers hold mu.
func (t *tableStream) garbleAhead() {
	rn := t.streamed
	if rn == nil || !rn.done {
		return
	}
	t.streamed = nil
	if rn.err == nil && !t.oneRun && !t.closed {
		t.ahead = &t.runs[0]
		if rn == t.ahead {
			t.ahead = &t.runs[1]
		}
		t.queue(t.ahead, t.pending, true)
	}
}

// resume queues a replay of the run that began from seed on the runner
// the run ahead does not hold; the goroutine garbles it once the run
// ahead, if in flight, is done.
func (t *tableStream) resume(seed uint64) *runner {
	t.mu.Lock()
	defer t.mu.Unlock()
	if q := t.queued; q != nil {
		// The run ahead has not begun: its runner is idle again, and the
		// next op queues the run anew.
		q.done = true
		t.queued, t.ahead = nil, nil
	}
	rn := &t.runs[0]
	if t.ahead == rn {
		rn = &t.runs[1]
	}
	t.settle(rn)
	t.queue(rn, seed, false)
	return rn
}

// pendingSeed returns the label-source state the next fresh run begins
// from, without touching the source.
func (t *tableStream) pendingSeed() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ahead != nil {
		return t.ahead.seed
	}
	return t.pending
}

// begun waits until rn's run has drawn R and its input zero-labels.
func (t *tableStream) begun(rn *runner) {
	t.mu.Lock()
	for !rn.begun {
		t.idle.Wait()
	}
	t.mu.Unlock()
}

// stop calls off rn's run, whose op failed before its tables streamed,
// and returns once its garbling has ended.
func (t *tableStream) stop(rn *runner) {
	t.mu.Lock()
	rn.stop = true
	for !rn.done {
		t.idle.Wait()
	}
	t.mu.Unlock()
}

func (t *tableStream) garbleLoop() {
	defer t.exited.Done()
	t.mu.Lock()
	for {
		for t.queued == nil && !t.closed {
			t.jobs.Wait()
		}
		if t.closed {
			t.mu.Unlock()
			return
		}
		rn := t.queued
		t.queued = nil
		t.mu.Unlock()

		if rn.pg == nil {
			rn.pg = gc.NewPlanGarbler(t.plan, t.hasher)
		}
		t.src.Reseed(rn.seed)
		rn.pg.Begin(t.src)
		t.mu.Lock()
		rn.begun = true
		if rn.fresh {
			t.pending = t.src.State()
		}
		t.idle.Broadcast()
		t.mu.Unlock()

		out, err := rn.pg.Run(rn.emit)

		t.mu.Lock()
		rn.done, rn.out, rn.err = true, out, err
		if t.due() {
			t.work.Signal() // the streamed run's end pushes the rest
		}
		t.garbleAhead()
		t.idle.Broadcast()
	}
}

// emitted marks the next n tables of rn's arena final — the runner's
// emit chunks are consecutive pieces of it — and returns the error that
// stops its garbling, if there is one yet: a write error stops the
// streamed run at its next emit. The mutex is the happens-before edge
// between the garbler's stores into the arena and the sender's reads of
// it.
func (t *tableStream) emitted(rn *runner, n int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || rn.stop {
		return errGarbleStopped
	}
	if t.cur == rn && t.err != nil {
		return t.err
	}
	rn.ready += n
	if t.due() {
		t.work.Signal()
	}
	return nil
}

// begin opens the stream of rn's run to w from table offset from: a
// resumed run's peer already holds the tables below it, so they count as
// sent and nothing is pending until the run has emitted past them. A
// fresh run's inputs have gone out by now, so the run after it may be
// garbled ahead.
func (t *tableStream) begin(w io.Writer, rn *runner, from int) {
	t.mu.Lock()
	for t.writing { // left by a run that panicked out before its drain
		t.idle.Wait()
	}
	t.w, t.cur, t.sent, t.err = w, rn, from, nil
	if rn.fresh {
		t.streamed = rn
		t.garbleAhead()
	}
	if t.due() {
		t.work.Signal()
	}
	t.mu.Unlock()
}

// drain ends the streamed run: it returns once the run's garbling has
// ended and the sender has written every table it emitted, or failed,
// with the garbled run and the run's first error, the garbler's or the
// sender's. Every streamed run calls it before touching the transport
// again, on its error paths too.
func (t *tableStream) drain() (*gc.Garbled, error) {
	start := time.Now()
	t.mu.Lock()
	rn := t.cur
	for !rn.done || t.writing || t.due() {
		t.idle.Wait()
	}
	t.cur = nil
	out, err := rn.out, rn.err
	if err == nil {
		err = t.err
	}
	t.mu.Unlock()
	t.stats.TableDrainWaitNanos.Add(int64(time.Since(start)))
	return out, err
}

// due reports whether a write should start now. Callers hold mu.
func (t *tableStream) due() bool {
	rn := t.cur
	if rn == nil || t.err != nil {
		return false
	}
	pending := rn.ready - t.sent
	return pending > 0 && (rn.done || pending >= emitFlushTables)
}

func (t *tableStream) sendLoop() {
	defer t.exited.Done()
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		for !t.closed && !t.due() {
			t.work.Wait()
		}
		if t.closed {
			return
		}
		w, tables := t.w, t.cur.pg.Tables()[t.sent:t.cur.ready]
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
		t.idle.Broadcast()
	}
}

// close stops both goroutines — a run garbling ahead stops at its next
// emit — and waits for them to exit. No run may be streaming.
func (t *tableStream) close() {
	t.mu.Lock()
	t.closed = true
	t.jobs.Signal()
	t.work.Signal()
	t.mu.Unlock()
	t.exited.Wait()
}
