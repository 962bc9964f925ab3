package proto

import (
	"bytes"
	"errors"
	"net"
	"syscall"
	"testing"
	"time"

	"haac/internal/builder"
	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
	"haac/internal/ot"
	"haac/internal/workloads"
)

// The garble goroutine's contract: runs garbled one ahead send the bytes
// of runs garbled on their op, one-shot garblers garble nothing ahead,
// and Close stops a run garbled ahead.

// TestAheadRunsMatchGarblePlan: every run of a multi-run session — the
// first, garbled once its op arrived, and the rest, garbled ahead —
// sends the tables and decode bits gc.GarblePlan gives from the same
// label-source sequence, and PendingSeed reports the state each run
// begins from.
func TestAheadRunsMatchGarblePlan(t *testing.T) {
	w := workloads.DotProduct(4, 16)
	c := w.Build()
	p, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 11
	ga, ev := connPair(t, true)
	rec := &recordingConn{Conn: ga}
	gs, err := NewGarblerSession(rec, Options{Plan: p, OT: ot.Insecure, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	es, err := NewEvaluatorSession(ev, c, Options{Plan: p, OT: ot.Insecure})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	src := label.NewSource(seed)
	tableBytes, nOut := len(p.Tables)*gc.MaterialSize, len(c.Outputs)
	for run := 0; run < 4; run++ {
		if got := gs.PendingSeed(); got != src.State() {
			t.Fatalf("run %d: PendingSeed %#x, want %#x", run, got, src.State())
		}
		ref, err := gc.GarblePlan(p, gc.RekeyedHasher{}, src)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, tableBytes, tableBytes+nOut)
		gc.EncodeMaterials(want, ref.Tables)
		for _, z := range ref.OutputZeros {
			want = append(want, byte(z.Colour()))
		}

		g, e := w.Inputs(int64(run))
		plain, err := c.Eval(g, e)
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			out, err := es.Run(e)
			if err == nil && !equalBits(out, plain) {
				err = errors.New("evaluator output differs from the plaintext oracle")
			}
			errc <- err
		}()
		out, err := gs.Run(g)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !equalBits(out, plain) {
			t.Fatalf("run %d: garbler's reported output differs from the plaintext oracle", run)
		}
		stream := bytes.Join(rec.take(), nil)
		if got := stream[len(stream)-len(want):]; !bytes.Equal(got, want) {
			t.Fatalf("run %d: tables and decode bits differ from gc.GarblePlan's", run)
		}
	}
}

// TestOneShotGarblesNoRunAhead: a one-shot garbler draws one run's labels
// and no more. RunGarbler's hasher sees one run's calls; a one-shot
// session's label source stands after exactly one Begin, with no run
// ahead recorded.
func TestOneShotGarblesNoRunAhead(t *testing.T) {
	r := newStreamRig(t)
	ref := label.NewSource(7)
	gc.NewPlanGarbler(r.p, gc.RekeyedHasher{}).Begin(ref)
	afterOne := ref.State()

	h := &hookHasher{}
	second := false
	h.arm(map[int]func(){4 * r.numAND: func() { second = true }})
	ga, ev := connPair(t, false)
	evc := r.evaluate(ev)
	if _, err := RunGarbler(ga, r.c, r.g, Options{Plan: r.p, OT: ot.Insecure, Seed: 7, Hasher: h}); err != nil {
		t.Fatal(err)
	}
	if err := <-evc; err != nil {
		t.Fatal(err)
	}
	if second || h.calls != 4*r.numAND {
		t.Fatalf("RunGarbler made %d hash calls, want one run's %d", h.calls, 4*r.numAND)
	}

	ga, ev = connPair(t, false)
	gs, err := newGarblerSession(ga, Options{Plan: r.p, OT: ot.Insecure, Seed: 7}, true)
	if err != nil {
		t.Fatal(err)
	}
	evc = r.evaluate(ev)
	if _, err := gs.Run(r.g); err != nil {
		t.Fatal(err)
	}
	if err := <-evc; err != nil {
		t.Fatal(err)
	}
	gs.Close()
	if got := gs.PendingSeed(); got != afterOne || gs.tx.ahead != nil || gs.tx.pending != afterOne {
		t.Fatalf("one-shot session: PendingSeed %#x, source at %#x, run ahead %v; want %#x after one Begin and none ahead",
			got, gs.tx.pending, gs.tx.ahead != nil, afterOne)
	}
}

// TestAheadGoroutinesReleasedOnClose: a live session runs exactly one
// table-stream goroutine, which garbles; Close stops a run being
// garbled ahead at its next emit and returns with it gone. The run
// ahead is held at its first gate until Close has marked the stream
// closed, so the close lands mid-garble.
func TestAheadGoroutinesReleasedOnClose(t *testing.T) {
	r := newStreamRig(t)
	before := streamGoroutines()
	h := &hookHasher{}
	ga, ev := connPair(t, false)
	gs, err := NewGarblerSession(ga, Options{Plan: r.p, OT: ot.Insecure, Seed: 7, Hasher: h})
	if err != nil {
		t.Fatal(err)
	}
	inAhead, release := make(chan struct{}), make(chan struct{})
	h.arm(map[int]func(){4 * r.numAND: func() { close(inAhead); <-release }})
	evc := r.evaluate(ev)
	if _, err := gs.Run(r.g); err != nil {
		t.Fatal(err)
	}
	if err := <-evc; err != nil {
		t.Fatal(err)
	}
	<-inAhead
	if n := streamGoroutines() - before; n != 1 {
		t.Fatalf("a live session runs %d table-stream goroutines, want 1", n)
	}

	closed := make(chan struct{})
	go func() {
		gs.Close()
		close(closed)
	}()
	for {
		gs.tx.mu.Lock()
		c := gs.tx.closed
		gs.tx.mu.Unlock()
		if c {
			break
		}
		time.Sleep(time.Millisecond) // liveness only
	}
	close(release)
	<-closed
	if h.calls >= 8*r.numAND {
		t.Fatalf("the run ahead was garbled to its end (%d hash calls) after Close", h.calls)
	}
	deadline := time.Now().Add(10 * time.Second)
	for streamGoroutines() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := streamGoroutines(); n > before {
		t.Fatalf("%d table-stream goroutines after Close, %d before the session", n, before)
	}
}

// resultForger passes the evaluator's writes on with every byte set to
// 2: on a circuit without evaluator inputs its one write is its result.
type resultForger struct{ net.Conn }

func (c resultForger) Write(p []byte) (int, error) {
	return c.Conn.Write(bytes.Repeat([]byte{2}, len(p)))
}

// TestResultByteOutsideBitsRejected: a reported result byte other than
// 0 or 1 fails the garbler's run, typed ErrMalformedFrame, instead of
// reading as false.
func TestResultByteOutsideBitsRejected(t *testing.T) {
	b := builder.New()
	x := b.GarblerInputs(8)
	y := b.GarblerInputs(8)
	b.OutputWord(b.Mul(x, y))
	c := b.MustBuild()
	p, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	ga, ev := connPair(t, false)
	errc := make(chan error, 1)
	go func() {
		_, err := RunEvaluator(resultForger{ev}, c, nil, Options{Plan: p, OT: ot.Insecure})
		errc <- err
	}()
	_, err = RunGarbler(ga, c, make([]bool, c.GarblerInputs), Options{Plan: p, OT: ot.Insecure, Seed: 5})
	if !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("garbler given a result byte of 2 returned %v, want ErrMalformedFrame", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("evaluator: %v", err)
	}
}

// stallingCut passes the first after bytes written through; the write
// that crosses that count writes up to it, waits for release and fails
// like a reset connection, and so does every write after it.
type stallingCut struct {
	net.Conn
	after    int
	written  int
	stalled  chan struct{} // closed when the crossing write stalls
	release  chan struct{}
	released bool
}

func (c *stallingCut) Write(p []byte) (int, error) {
	if c.released {
		return 0, syscall.ECONNRESET
	}
	if c.written+len(p) <= c.after {
		n, err := c.Conn.Write(p)
		c.written += n
		return n, err
	}
	n, _ := c.Conn.Write(p[:c.after-c.written])
	c.written += n
	close(c.stalled)
	<-c.release
	c.released = true
	return n, syscall.ECONNRESET
}

// TestResumeWhileAheadInFlight: a run broken mid-stream while the next
// run is being garbled ahead resumes on a fresh connection with the
// right outputs — its replay waits for the run ahead, then goes to the
// other runner — and the run after it, the one garbled ahead, is right
// too, from the seed PendingSeed reports. The broken run is a session's
// second, so the run ahead sits in the runner the first run used.
func TestResumeWhileAheadInFlight(t *testing.T) {
	r := newStreamRig(t)
	const cutTables = 5
	pre := r.preTableBytes(t)
	h := &hookHasher{}
	ga, ev := connPair(t, false)
	gs, err := NewGarblerSession(ga, Options{Plan: r.p, OT: ot.Insecure, Seed: 7, Hasher: h})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	es, err := NewEvaluatorSession(ev, r.c, Options{Plan: r.p, OT: ot.Insecure})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	gerr, eerr := make(chan error, 1), make(chan error, 1)
	run := func() {
		t.Helper()
		go func() {
			_, err := gs.Run(r.g)
			gerr <- err
		}()
		out, err := es.Run(r.e)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-gerr; err != nil {
			t.Fatal(err)
		}
		if !equalBits(out, r.want) {
			t.Fatal("wrong output")
		}
	}

	// The third run, garbled ahead, is held at its first gate until the
	// resume of the second has been asked for.
	inAhead, resumeAsked := make(chan struct{}), make(chan struct{})
	h.arm(map[int]func(){8 * r.numAND: func() { close(inAhead); <-resumeAsked }})
	run()
	ga2, ev2 := connPair(t, false)
	cut := &stallingCut{Conn: ga2, after: pre + cutTables*gc.MaterialSize + 7, stalled: make(chan struct{}), release: make(chan struct{})}
	gs.Reset(cut, ot.Insecure)
	es.Reset(ev2)
	seed2 := gs.PendingSeed()
	go func() {
		_, err := gs.Run(r.g)
		gerr <- err
	}()
	go func() {
		_, err := es.Run(r.e)
		eerr <- err
	}()
	<-cut.stalled
	<-inAhead
	close(cut.release)
	if err := <-gerr; !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("garbler cut mid-stream returned %v, want ErrPeerClosed", err)
	}
	ga2.Close()
	if err := <-eerr; !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("evaluator cut mid-stream returned %v, want ErrPeerClosed", err)
	}
	got, ok := es.Progress()
	if !ok || got != cutTables {
		t.Fatalf("Progress = %d, %v; want %d whole tables", got, ok, cutTables)
	}
	seed3 := gs.PendingSeed()
	ref := label.NewSource(seed2)
	gc.NewPlanGarbler(r.p, gc.RekeyedHasher{}).Begin(ref)
	if seed3 != ref.State() {
		t.Fatalf("seed of the run ahead %#x, want %#x, the state after run two's Begin", seed3, ref.State())
	}

	ga3, ev3 := connPair(t, false)
	gs.Reset(ga3, ot.Insecure)
	es.Reset(ev3)
	go func() {
		_, err := gs.ResumeRun(seed2, got)
		gerr <- err
	}()
	// The replay is queued behind the run ahead, not on its runner.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		gs.tx.mu.Lock()
		queued := gs.tx.queued != nil
		gs.tx.mu.Unlock()
		if queued {
			break
		}
		if time.Now().After(deadline) {
			close(resumeAsked)
			t.Fatal("the resume was never queued while the run ahead was in flight")
		}
	}
	close(resumeAsked)
	out, err := es.Resume()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := <-gerr; err != nil {
		t.Fatalf("garbler resume: %v", err)
	}
	if !equalBits(out, r.want) {
		t.Fatal("resumed run's output differs from the plaintext oracle")
	}
	if got := gs.PendingSeed(); got != seed3 {
		t.Fatalf("after the resume the run ahead begins from %#x, want %#x", got, seed3)
	}
	run()
}
