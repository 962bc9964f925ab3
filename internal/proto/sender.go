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
// feeds its gate engines through queues (§3.1.4): one engine on each
// side of the table arena. A GarblerSession's runs garble no gate
// themselves; the session's garble goroutine does, into one of two plan
// runners, and its runner's emit publishes how far the runner's table
// arena is final. The run's own goroutine follows that watermark and
// writes the arena's own bytes to the transport, so a run that is not
// fully garbled yet still streams while garbling finishes.
//
// A run's tables, R, input zero-labels and decode bits depend on
// neither party's inputs, so the garble goroutine works one run ahead:
// once run j is garbled and its tables have begun to stream, it begins
// and garbles run j+1 into the other runner, while run j's tables
// drain, the evaluator finishes and the next op travels. Not sooner:
// run j's input phase (its OT) is on the run's critical path, and on an
// input-heavy circuit garbling beside it takes the CPU it needs. At
// most one run is garbled that no op has asked for, and none before the
// first op. Run j's runner keeps its decode bits and arena until run j
// ends, so two runners suffice.
//
// Label-source draws keep the order of the runs (run j's, then run
// j+1's), so the wire bytes are those of garbling each run when its op
// arrives. A resumed run is garbled by the same goroutine, from its
// recorded seed, on the runner the run ahead does not hold.

// emitFlushTables is the number of pending tables from which a streamed
// run pushes them to the transport instead of waiting for more: 32 KiB of
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

// tableStream is a GarblerSession's garble goroutine and the state it
// shares with the session's runs. One run at a time streams, inside
// stream; outside a queued run the garble goroutine is parked.
type tableStream struct {
	plan   *circuit.Plan
	hasher gc.Hasher
	stats  *Stats
	src    *label.Source // drawn only by the garble goroutine
	runs   [2]runner
	exited sync.WaitGroup

	mu   sync.Mutex
	jobs sync.Cond // the garble goroutine waits: a run queued, or close
	idle sync.Cond // the session waits: a run begun or ended, tables due, a write failed

	queued   *runner // the run the garble goroutine takes next
	ahead    *runner // the fresh run no op has asked for: queued, garbling or garbled
	streamed *runner // the fresh run whose tables have begun to stream, until its garbling ends
	pending  uint64  // the source state the next fresh run not yet queued begins from
	oneRun   bool    // garble no run ahead: a one-shot RunGarbler's session

	cur    *runner // the streamed run, inside stream
	sent   int     // tables written, skipped by a resume, or abandoned after err
	err    error   // the streamed run's first write error
	closed bool
}

// newTableStream starts the garble goroutine of a session garbling p
// with h from label-source state seed, accounting its time to stats
// (nil for nowhere). A oneRun stream never garbles ahead.
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
	t.jobs.L, t.idle.L = &t.mu, &t.mu
	t.exited.Add(1)
	go t.garbleLoop()
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
		t.garbleAhead()
		t.idle.Broadcast()
	}
}

// emitted marks the next n tables of rn's arena final — the runner's
// emit chunks are consecutive pieces of it — and returns the error that
// stops its garbling, if there is one yet: a write error stops the
// streamed run at its next emit. The mutex is the happens-before edge
// between the garbler's stores into the arena and the streamed run's
// reads of it.
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
		t.idle.Broadcast()
	}
	return nil
}

// stream streams rn's run to w from table offset from, on the calling
// goroutine, and ends it: it writes everything published since its last
// write once emitFlushTables are pending or the run's garbling has
// ended, and returns once garbling has ended and every emitted table
// has been written or abandoned after a write error, with the garbled
// run and the run's first error, the garbler's or the transport's. A
// resumed run's peer already holds the tables below from, so they count
// as sent. A fresh run's inputs have gone out by now, so the run after
// it may be garbled ahead. Every streamed run calls it before touching
// the transport again.
func (t *tableStream) stream(w io.Writer, rn *runner, from int) (*gc.Garbled, error) {
	start := time.Now()
	t.mu.Lock()
	t.cur, t.sent, t.err = rn, from, nil
	if rn.fresh {
		t.streamed = rn
		t.garbleAhead()
	}
	for {
		for !t.due() && !rn.done {
			t.idle.Wait()
		}
		if !t.due() {
			break
		}
		tables := rn.pg.Tables()[t.sent:rn.ready]
		t.mu.Unlock()

		gc.MaterialsToWire(tables)
		ws := time.Now()
		_, err := w.Write(gc.MaterialBytes(tables))
		t.stats.TableSendNanos.Add(int64(time.Since(ws)))

		t.mu.Lock()
		t.sent += len(tables)
		if err != nil {
			t.err = wrapPeer("streaming tables", err)
			t.idle.Broadcast() // for whoever waits on the run's failure
		}
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

// due reports whether the streamed run should write now. Callers hold
// mu.
func (t *tableStream) due() bool {
	rn := t.cur
	if rn == nil || t.err != nil {
		return false
	}
	pending := rn.ready - t.sent
	return pending > 0 && (rn.done || pending >= emitFlushTables)
}

// close stops the garble goroutine — a run garbling ahead stops at its
// next emit — and waits for it to exit. No run may be streaming.
func (t *tableStream) close() {
	t.mu.Lock()
	t.closed = true
	t.jobs.Signal()
	t.mu.Unlock()
	t.exited.Wait()
}
