package proto

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"haac/internal/circuit"
	"haac/internal/faultnet"
	"haac/internal/gc"
	"haac/internal/label"
	"haac/internal/ot"
	"haac/internal/workloads"
)

// The decoupled table stream's contract, pinned without a clock: every
// test below orders events through the garbler's own hash calls and the
// transport's own reads and writes, so a violation shows as a failed
// assertion or a deadlock (the test timeout), never as a flake.

// hookHasher is a plain Hasher — so the runner hashes through individual
// Hash calls, four per garbled AND gate, in schedule order — that runs a
// hook when the garbler reaches a given call. The calls all come from
// the session's garble goroutine. A test that arms it between runs uses
// one-shot garblers, which garble no run ahead.
type hookHasher struct {
	inner gc.RekeyedHasher
	calls int
	at    map[int]func()
}

func (h *hookHasher) Name() string { return "hook" }

func (h *hookHasher) Hash(l label.L, tweak uint64) label.L {
	if f := h.at[h.calls]; f != nil {
		f()
	}
	h.calls++
	return h.inner.Hash(l, tweak)
}

// arm clears the call count and installs the hooks of the next run.
func (h *hookHasher) arm(at map[int]func()) { h.calls, h.at = 0, at }

// garbledThrough returns how many AND gates steps 0..k of p hold.
func garbledThrough(p *circuit.Plan, k int) int {
	n := 0
	for i := 0; i <= k; i++ {
		_, and, _ := p.Step(i)
		n += len(and)
	}
	return n
}

// streamRig is the circuit the stream tests run: big enough for a dozen
// coalesced table writes, with emits from one table to a thousand.
type streamRig struct {
	c      *circuit.Circuit
	p      *circuit.Plan
	numAND int
	g, e   []bool
	want   []bool
}

func newStreamRig(t *testing.T) *streamRig {
	t.Helper()
	w := workloads.DotProduct(12, 32)
	c := w.Build()
	p, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	g, e := w.Inputs(1)
	want, err := c.Eval(g, e)
	if err != nil {
		t.Fatal(err)
	}
	r := &streamRig{c: c, p: p, numAND: len(p.Tables), g: g, e: e, want: want}
	if r.numAND < 8*emitFlushTables {
		t.Fatalf("circuit has %d tables; the stream tests need several coalesced writes", r.numAND)
	}
	return r
}

// evaluate runs a one-shot evaluator over ev in the background and
// returns the channel its outcome arrives on: an error, or a mismatch
// with the plaintext oracle.
func (r *streamRig) evaluate(ev net.Conn) <-chan error {
	errc := make(chan error, 1)
	go func() {
		out, err := RunEvaluator(ev, r.c, r.e, Options{Plan: r.p, OT: ot.Insecure})
		if err == nil && !equalBits(out, r.want) {
			err = errors.New("evaluator output differs from the plaintext oracle")
		}
		errc <- err
	}()
	return errc
}

func equalBits(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// gatedConn passes writes through until armed; from then on a Write
// announces itself and blocks until released.
type gatedConn struct {
	net.Conn
	armed     atomic.Bool
	attempted chan struct{} // closed by the first Write after arming
	release   chan struct{} // closed to let armed Writes proceed
	once      sync.Once
	out       atomic.Int64 // bytes written after arming
}

func (c *gatedConn) Write(p []byte) (int, error) {
	if !c.armed.Load() {
		return c.Conn.Write(p)
	}
	c.once.Do(func() { close(c.attempted) })
	<-c.release
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// TestGarblerRunsAheadOfBlockedTransport: garbling does not wait for the
// transport. With every write from the first hash call on blocked — and
// one provably pending inside Write — the run still reaches its last
// hash call with no byte of it out. A garbler that writes tables itself,
// or garbles only once its input phase is through, never gets there.
func TestGarblerRunsAheadOfBlockedTransport(t *testing.T) {
	r := newStreamRig(t)
	ga, ev := connPair(t, false)
	gate := &gatedConn{Conn: ga, attempted: make(chan struct{}), release: make(chan struct{})}
	h := &hookHasher{}

	outAtLast := int64(-1)
	h.arm(map[int]func(){
		0: func() { gate.armed.Store(true) },
		4*r.numAND - 1: func() {
			<-gate.attempted
			outAtLast = gate.out.Load()
			close(gate.release)
		},
	})
	evc := r.evaluate(ev)
	out, err := RunGarbler(gate, r.c, r.g, Options{Plan: r.p, OT: ot.Insecure, Seed: 7, Hasher: h})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-evc; err != nil {
		t.Fatal(err)
	}
	if !equalBits(out, r.want) {
		t.Fatal("garbler's reported output differs from the plaintext oracle")
	}
	if h.calls != 4*r.numAND {
		t.Fatalf("%d hash calls, want 4 per AND gate = %d", h.calls, 4*r.numAND)
	}
	if outAtLast != 0 {
		t.Fatalf("%d table bytes had left a blocked transport when the last gate was garbled", outAtLast)
	}
}

// notifyingReader counts the bytes its reads deliver and lets a waiter
// sleep until a given count has arrived.
type notifyingReader struct {
	net.Conn
	mu   sync.Mutex
	cond sync.Cond
	n    int64
	err  error
}

func newNotifyingReader(c net.Conn) *notifyingReader {
	r := &notifyingReader{Conn: c}
	r.cond.L = &r.mu
	return r
}

func (r *notifyingReader) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	r.mu.Lock()
	r.n += int64(n)
	if err != nil {
		r.err = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	return n, err
}

func (r *notifyingReader) received() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// waitFor blocks until want bytes have been read, or a read failed.
func (r *notifyingReader) waitFor(want int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.n < want && r.err == nil {
		r.cond.Wait()
	}
	if r.n < want {
		return r.err
	}
	return nil
}

// TestSenderDeliversWhileGarblerHeld: published tables reach the peer
// without further help from the garbler. The garbler is held at the
// first gate of its last step until the evaluator's transport has
// received every table published before it, less the under-threshold
// tail the run may keep for its next write. Tables parked until a
// later emit pushes them out deadlock here.
func TestSenderDeliversWhileGarblerHeld(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		r := newStreamRig(t)
		ga, ev0 := connPair(t, tcp)
		ev := newNotifyingReader(ev0)
		h := &hookHasher{}
		opts := Options{Plan: r.p, OT: ot.Insecure, Seed: 7, Hasher: h}

		// A first, unhooked run measures what precedes a run's tables.
		evc := r.evaluate(ev)
		if _, err := RunGarbler(ga, r.c, r.g, opts); err != nil {
			t.Fatal(err)
		}
		if err := <-evc; err != nil {
			t.Fatal(err)
		}
		perRun := ev.received()
		base := perRun - int64(r.numAND*gc.MaterialSize+len(r.c.Outputs))

		last := r.p.NumSteps() - 1 // the last step with AND gates
		for garbledThrough(r.p, last-1) == r.numAND {
			last--
		}
		published := r.p.EmitReady(last - 1)
		if published < r.numAND/2 {
			t.Fatalf("only %d of %d tables are published before the last step; the hold proves little", published, r.numAND)
		}
		want := perRun + base + int64((published-emitFlushTables+1)*gc.MaterialSize)
		var holdErr error
		h.arm(map[int]func(){
			4 * garbledThrough(r.p, last-1): func() { holdErr = ev.waitFor(want) },
		})
		evc = r.evaluate(ev)
		if _, err := RunGarbler(ga, r.c, r.g, opts); err != nil {
			t.Fatal(err)
		}
		if err := <-evc; err != nil {
			t.Fatal(err)
		}
		if holdErr != nil {
			t.Fatalf("tcp=%v: evaluator's transport failed while the garbler was held: %v", tcp, holdErr)
		}
		if h.calls != 4*r.numAND {
			t.Fatalf("tcp=%v: %d hash calls, want %d", tcp, h.calls, 4*r.numAND)
		}
	}
}

// recordingConn keeps a copy of every Write.
type recordingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// take returns the writes recorded so far and forgets them.
func (c *recordingConn) take() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.writes
	c.writes = nil
	return w
}

// checkTableWrites asserts the shape of one run's (or resumed run's)
// recorded writes: whatever precedes the tables, then writes that hold
// nothing but tables — together exactly want, the gate-order encoding —
// every one but the last at least emitFlushTables long (how many writes
// there are is the scheduler's business), then the decode bits and
// nothing after them.
func checkTableWrites(t *testing.T, writes [][]byte, want []byte, decodeBits int) {
	t.Helper()
	total := 0
	for _, w := range writes {
		total += len(w)
	}
	start := total - decodeBits - len(want)
	if start < 0 {
		t.Fatalf("run wrote %d bytes, fewer than its %d table and %d decode bytes", total, len(want), decodeBits)
	}
	var tables []byte
	var sizes []int
	off := 0
	for i, w := range writes {
		switch {
		case off+len(w) <= start: // header, labels, OT
		case off >= start && off+len(w) <= start+len(want):
			tables = append(tables, w...)
			sizes = append(sizes, len(w))
		case off >= start+len(want): // decode bits
		default:
			t.Fatalf("write %d (%d bytes at stream offset %d) mixes table bytes [%d,%d) with other traffic",
				i, len(w), off, start, start+len(want))
		}
		off += len(w)
	}
	if !bytes.Equal(tables, want) {
		t.Fatal("table writes are not the gate-order table stream")
	}
	for i, n := range sizes[:len(sizes)-1] {
		if n < emitFlushTables*gc.MaterialSize {
			t.Fatalf("table write %d of %d carries %d bytes, under the %d-byte floor (sizes %v)",
				i, len(sizes), n, emitFlushTables*gc.MaterialSize, sizes)
		}
	}
}

// referenceTables is the gate-order wire encoding of the tables the
// reference garbler produces from the given label-source state.
func referenceTables(t *testing.T, c *circuit.Circuit, seed uint64) []byte {
	t.Helper()
	garbled, err := gc.Garble(c, gc.RekeyedHasher{}, label.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, len(garbled.Tables)*gc.MaterialSize)
	gc.EncodeMaterials(b, garbled.Tables)
	return b
}

// TestTableWritesContiguousAndCoalesced: what reaches the transport is
// the same stream as ever — tables contiguous and in gate order, never
// sharing a write with anything else, none after the decode bits — in
// writes of at least emitFlushTables tables, a run's last excepted.
func TestTableWritesContiguousAndCoalesced(t *testing.T) {
	r := newStreamRig(t)
	ga, ev := connPair(t, true)
	rec := &recordingConn{Conn: ga}
	gs, err := NewGarblerSession(rec, Options{Plan: r.p, OT: ot.Insecure, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	for run := 0; run < 2; run++ {
		want := referenceTables(t, r.c, gs.PendingSeed())
		evc := r.evaluate(ev)
		if _, err := gs.Run(r.g); err != nil {
			t.Fatal(err)
		}
		if err := <-evc; err != nil {
			t.Fatal(err)
		}
		checkTableWrites(t, rec.take(), want, len(r.c.Outputs))
	}
}

// failingConn passes the first after bytes written through, then fails
// every write like a reset connection.
type failingConn struct {
	net.Conn
	after   int64
	written atomic.Int64
}

func (c *failingConn) Write(p []byte) (int, error) {
	if c.written.Load() >= c.after {
		return 0, syscall.ECONNRESET
	}
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// preTableBytes is how many bytes a garbler writes before a run's first
// table: header, labels and OT.
func (r *streamRig) preTableBytes(t *testing.T) int {
	t.Helper()
	var ref bytes.Buffer
	ga, ev := connPair(t, false)
	evc := r.evaluate(ev)
	if _, err := RunGarbler(teeConn{ga, &ref}, r.c, r.g, Options{Plan: r.p, OT: ot.Insecure, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := <-evc; err != nil {
		t.Fatal(err)
	}
	return ref.Len() - r.numAND*gc.MaterialSize - len(r.c.Outputs)
}

// TestDeadPeerStopsGarblerAtNextEmit: the run's write error ends the
// run at the garbler's next emit, typed ErrPeerClosed, instead of after
// the rest of the circuit has been garbled; a run that failed garbles
// none ahead; and the session is sound afterwards — Reset onto a live
// connection and the next run succeeds.
func TestDeadPeerStopsGarblerAtNextEmit(t *testing.T) {
	r := newStreamRig(t)
	ga, ev := connPair(t, false)
	// The connection dies at the run's first table write.
	dead := &failingConn{Conn: ga, after: int64(r.preTableBytes(t))}
	h := &hookHasher{}
	gs, err := NewGarblerSession(dead, Options{Plan: r.p, OT: ot.Insecure, Seed: 7, Hasher: h})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()

	// due is the step whose emit first gives the run a write to make,
	// next the step of the emit after it.
	due := 0
	for r.p.EmitReady(due) < emitFlushTables {
		due++
	}
	next := due + 1
	for r.p.EmitReady(next) == r.p.EmitReady(due) {
		next++
	}
	h.arm(map[int]func(){
		// Hold the garbler until the run has recorded its write failure.
		4 * garbledThrough(r.p, due): func() {
			gs.tx.mu.Lock()
			for gs.tx.err == nil {
				gs.tx.idle.Wait()
			}
			gs.tx.mu.Unlock()
		},
	})
	evc := r.evaluate(ev)
	_, err = gs.Run(r.g)
	if !errors.Is(err, ErrPeerClosed) || !strings.Contains(err.Error(), "streaming tables") {
		t.Fatalf("run against a dead peer returned %v, want ErrPeerClosed from streaming tables", err)
	}
	if want := 4 * garbledThrough(r.p, next); h.calls != want {
		t.Fatalf("garbler made %d hash calls after its peer died, want %d (stop at the next emit; the circuit has %d)",
			h.calls, want, 4*r.numAND)
	}
	ga.Close()
	if err := <-evc; !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("evaluator cut off mid-stream returned %v, want ErrPeerClosed", err)
	}

	ga2, ev2 := connPair(t, false)
	gs.Reset(ga2, ot.Insecure)
	h.arm(nil)
	evc = r.evaluate(ev2)
	out, err := gs.Run(r.g)
	if err != nil {
		t.Fatalf("run after Reset: %v", err)
	}
	if err := <-evc; err != nil {
		t.Fatal(err)
	}
	if !equalBits(out, r.want) {
		t.Fatal("run after Reset: wrong output")
	}
}

// TestResumeOffsetExactAtUnalignedCut: a stream cut inside a table — and
// inside a read far longer than the 512 tables a read used to span —
// leaves Progress at exactly the whole tables that landed, and the run
// resumed from there receives byte for byte the rest of the stream an
// uninterrupted run sends.
func TestResumeOffsetExactAtUnalignedCut(t *testing.T) {
	r := newStreamRig(t)
	const seed = 7
	opts := Options{Plan: r.p, OT: ot.Insecure, Seed: seed}
	tableBytes := r.numAND * gc.MaterialSize

	// The uninterrupted run: its outbound stream, and how many bytes
	// cross the garbler's connection, both ways, before the first table.
	var ref bytes.Buffer
	var st Stats
	ga, ev := connPair(t, false)
	evc := r.evaluate(ev)
	clean := opts
	clean.Stats = &st
	if _, err := RunGarbler(teeConn{ga, &ref}, r.c, r.g, clean); err != nil {
		t.Fatal(err)
	}
	if err := <-evc; err != nil {
		t.Fatal(err)
	}
	nOut := len(r.c.Outputs)
	base := ref.Len() - tableBytes - nOut
	crossed := int64(base) + st.BytesReceived.Load() - int64(nOut)

	// The second cut lands 600 tables into the stream's first read that
	// is longer than that (a step's watermark jumps a segment at a time).
	long := 0
	for r.p.NeedTables(long+1)-r.p.NeedTables(long) <= 600 {
		long++
	}
	for _, cut := range []int{17, (r.p.NeedTables(long)+600)*gc.MaterialSize + 5} {
		if cut%gc.MaterialSize == 0 || cut >= tableBytes {
			t.Fatalf("cut %d must fall inside a table of the %d-byte stream", cut, tableBytes)
		}
		// One-byte write chunks make the drop land on an exact byte.
		ga, ev := connPair(t, false)
		cutConn := faultnet.Wrap(ga, faultnet.Plan{MaxWriteChunk: 1, DropAfterBytes: crossed + int64(cut)}, nil)
		gs, err := NewGarblerSession(cutConn, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer gs.Close()
		es, err := NewEvaluatorSession(ev, r.c, Options{Plan: r.p, OT: ot.Insecure})
		if err != nil {
			t.Fatal(err)
		}
		defer es.Close()

		resumeSeed := gs.PendingSeed()
		gerr := make(chan error, 1)
		go func() {
			_, err := gs.Run(r.g)
			gerr <- err
		}()
		if _, err := es.Run(r.e); !errors.Is(err, ErrPeerClosed) {
			t.Fatalf("cut %d: evaluator returned %v, want ErrPeerClosed", cut, err)
		}
		if err := <-gerr; !errors.Is(err, ErrPeerClosed) {
			t.Fatalf("cut %d: garbler returned %v, want ErrPeerClosed", cut, err)
		}
		got, ok := es.Progress()
		if !ok || got != cut/gc.MaterialSize {
			t.Fatalf("cut %d: Progress = %d, %v; want %d whole tables", cut, got, ok, cut/gc.MaterialSize)
		}

		var resumed bytes.Buffer
		ga2, ev2 := connPair(t, false)
		gs.Reset(teeConn{ga2, &resumed}, ot.Insecure)
		es.Reset(ev2)
		go func() {
			_, err := gs.ResumeRun(resumeSeed, got)
			gerr <- err
		}()
		out, err := es.Resume()
		if err != nil {
			t.Fatalf("cut %d: resume: %v", cut, err)
		}
		if err := <-gerr; err != nil {
			t.Fatalf("cut %d: garbler resume: %v", cut, err)
		}
		if !equalBits(out, r.want) {
			t.Fatalf("cut %d: resumed run's output differs from the plaintext oracle", cut)
		}
		if want := ref.Bytes()[base+got*gc.MaterialSize:]; !bytes.Equal(resumed.Bytes(), want) {
			t.Fatalf("cut %d: resumed stream (%d bytes) differs from the uninterrupted stream's tail (%d bytes)",
				cut, resumed.Len(), len(want))
		}
	}
}

// streamGoroutines counts the live goroutines that a table stream
// started, whatever they run: those whose stack began in a tableStream
// method.
func streamGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("created by haac/internal/proto.newTableStream")) {
			n++
		}
	}
	return n
}

// TestOneShotGarblerLeavesNoStreamGoroutine: RunGarbler's session takes
// its garble goroutine with it, on success and on failure.
func TestOneShotGarblerLeavesNoStreamGoroutine(t *testing.T) {
	r := newStreamRig(t)
	before := streamGoroutines()
	ga, ev := connPair(t, false)
	evc := r.evaluate(ev)
	if _, err := RunGarbler(ga, r.c, r.g, Options{Plan: r.p, OT: ot.Insecure, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := <-evc; err != nil {
		t.Fatal(err)
	}
	ga, ev = connPair(t, false)
	ev.Close()
	if _, err := RunGarbler(ga, r.c, r.g, Options{Plan: r.p, OT: ot.Insecure, Seed: 7}); err == nil {
		t.Fatal("garbler succeeded against a closed peer")
	}
	// Close has waited for the goroutine's last statement; give it the
	// moment it needs to leave the scheduler (liveness only).
	deadline := time.Now().Add(10 * time.Second)
	for streamGoroutines() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := streamGoroutines(); n > before {
		t.Fatalf("%d table-stream goroutines, %d before the one-shot runs", n, before)
	}
}
