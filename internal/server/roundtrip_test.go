package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"haac/internal/circuit"
	"haac/internal/ot"
	"haac/internal/proto"
	"haac/internal/workloads"
)

// turnConn records the client's side of a connection: turns counts the
// reads that follow a write by the same goroutine — one per time the
// client hands the conversation to the server and waits for its answer.
// An in-run fill and a pieced correction write from the session's pool
// goroutine, which never reads, so its writes wait on no server byte and
// count no turn; they are counted apart, as writes by any goroutine
// other than owner's.
type turnConn struct {
	net.Conn
	owner uint64 // the goroutine that calls Run
	mu    sync.Mutex
	wrote map[uint64]bool
	turns int
	fills int
}

func (c *turnConn) Write(p []byte) (int, error) {
	g := goid()
	c.mu.Lock()
	c.wrote[g] = true
	if g != c.owner {
		c.fills++
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *turnConn) Read(p []byte) (int, error) {
	g := goid()
	c.mu.Lock()
	if c.wrote[g] {
		c.turns++
		c.wrote[g] = false
	}
	c.mu.Unlock()
	return c.Conn.Read(p)
}

// take returns the turns and the pool goroutine's writes since the last
// take.
func (c *turnConn) take() (turns, fills int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	turns, fills = c.turns, c.fills
	c.turns, c.fills = 0, 0
	return turns, fills
}

// goid returns the calling goroutine's id, read off the first line of
// its stack trace ("goroutine N [running]:").
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[len("goroutine "):n])
	id, err := strconv.ParseUint(string(f[0]), 10, 64)
	if err != nil {
		panic("goid: " + err.Error())
	}
	return id
}

// writeLog records every Write a server-side connection makes.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *writeLog) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// since returns the writes from index k on.
func (c *writeLog) since(k int) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes[k:]...)
}

// loggingListener wraps every accepted connection in a writeLog and
// hands it to the test.
type loggingListener struct {
	net.Listener
	conns chan *writeLog
}

func (l loggingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	wl := &writeLog{Conn: conn}
	l.conns <- wl
	return wl, nil
}

// TestRunRoundTrips counts, with no clock, the round trips a
// Session.Run costs: a pool hit is one write→read turn on the plain and
// the integrity tier — the choice correction rides with the op, and the
// server's answer carries the ack, the header and the masked pairs, the
// ack and header in one Write — while a miss pays a second turn for its
// on-demand DH OT. A hit that carries an in-run fill is still one turn:
// the fill's writes come from a goroutine that never waits on a server
// byte. So is a hit whose correction is several ot.DerandPiece pieces:
// the op frame holds its head, the pieces leave from that same
// goroutine, and the server answers each as it arrives. (Such a batch
// leaves a deficit of at least min(target/2, 16384), so its hits always
// carry a fill.)
func TestRunRoundTrips(t *testing.T) {
	type circ struct {
		w          workloads.Workload
		c          *circuit.Circuit
		m          int
		gbits, ebs []bool
		want       []bool
	}
	build := func(w workloads.Workload) circ {
		c := w.Build()
		g, e := w.Inputs(1)
		want, err := c.Eval(g, e)
		if err != nil {
			t.Fatal(err)
		}
		return circ{w, c, c.EvaluatorInputs, g, e, want}
	}
	small := build(workloads.AddN(8))
	pieced := build(workloads.AddN(ot.DerandPiece + 1))
	var specs []CircuitSpec
	for _, ci := range []circ{small, pieced} {
		specs = append(specs, CircuitSpec{ID: ci.w.Name, Circuit: ci.c, Inputs: func() []bool { return ci.gbits }})
	}
	srv, err := New(Config{Circuits: specs, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := loggingListener{Listener: tcp, conns: make(chan *writeLog, 1)}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})

	const runs = 3
	for _, tc := range []struct {
		name      string
		ci        circ
		pool      int // in runs' worth: below 1 every run misses
		fills     bool
		integrity bool
		turns     int
	}{
		{"hit", small, 8, false, false, 1},
		{"hit+integrity", small, 8, false, true, 1},
		{"hit+fill", small, 2, true, false, 1},
		{"hit+fill+integrity", small, 2, true, true, 1},
		{"miss", small, 0, false, false, 2},
		{"miss+integrity", small, 0, false, true, 2},
		{"pieced-hit+fill", pieced, 2, true, false, 1},
		{"pieced-hit+fill+integrity", pieced, 2, true, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, pieces := tc.ci.m, tc.ci.m > ot.DerandPiece
			poolSize := max(tc.pool*m, 1)
			var cc *turnConn
			owner := goid()
			dial := func(addr string) (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				cc = &turnConn{Conn: conn, owner: owner, wrote: map[uint64]bool{}}
				return cc, err
			}
			sess, err := Dial(tcp.Addr().String(), tc.ci.w.Name, tc.ci.c, Options{PoolSize: poolSize, Integrity: tc.integrity, Dialer: dial})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			sc := <-ln.conns
			if !sess.Pooled() || sess.Integrity() != tc.integrity {
				t.Fatalf("negotiated pooled=%v integrity=%v", sess.Pooled(), sess.Integrity())
			}
			for run := 0; run < runs; run++ {
				cc.take()
				k := len(sc.since(0))
				got, err := sess.Run(tc.ci.ebs)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				for i := range tc.ci.want {
					if got[i] != tc.ci.want[i] {
						t.Fatalf("run %d: output %d diverged from the oracle", run, i)
					}
				}
				side := tc.fills || pieces
				if n, f := cc.take(); n != tc.turns || (f > 0) != side {
					t.Errorf("run %d: %d write→read turns, %d pool-goroutine writes; want %d turns, such writes %v", run, n, f, tc.turns, side)
				}
				// The server's first Write of the run holds the ack and, right
				// behind it (and the integrity tier's frame header and resume
				// token), the run header's magic "HAAC".
				first := sc.since(k)[0]
				at := 1
				if tc.integrity {
					first = first[8:]
					at += 8
				}
				if first[0] != ackGo || len(first) < at+4 || binary.LittleEndian.Uint32(first[at:]) != 0x48414143 {
					t.Errorf("run %d: first server write %x does not carry the ack and the header", run, first[:min(len(first), 24)])
				}
			}
			cs := sess.Stats()
			hits, misses, refills := uint64(runs), uint64(0), uint64(1)
			if tc.pool == 0 {
				hits, misses = 0, runs
			}
			if tc.fills {
				refills += runs
			}
			if cs.PoolHits != hits || cs.PoolMisses != misses || cs.PoolRefills != refills {
				t.Fatalf("pool hits/misses/refills = %d/%d/%d, want %d/%d/%d", cs.PoolHits, cs.PoolMisses, cs.PoolRefills, hits, misses, refills)
			}
		})
	}
}

// runHeader encodes the proto run header for c, by hand, with the given
// OT byte (see the wire format in internal/proto).
func runHeader(c *circuit.Circuit, otByte byte) []byte {
	and, _, _ := c.CountOps()
	le := binary.LittleEndian
	b := le.AppendUint32(nil, 0x48414143)
	b = append(b, 1, otByte)
	b = le.AppendUint64(b, uint64(len(c.Gates)))
	b = le.AppendUint64(b, uint64(c.NumWires()))
	b = le.AppendUint32(b, uint32(c.GarblerInputs))
	b = le.AppendUint32(b, uint32(c.EvaluatorInputs))
	hasConst := byte(0)
	if c.HasConst {
		hasConst = 1
	}
	b = append(b, hasConst)
	b = le.AppendUint32(b, uint32(len(c.Outputs)))
	return le.AppendUint64(b, uint64(and))
}

// TestPoolDecisionDesync: a scripted server whose run header's OT byte
// contradicts the client's own hit/miss decision, in both directions.
// The client sent its op frame (with the correction on a hit) and reads
// the ack and the header; the contradiction fails the run with
// ErrMalformedFrame and breaks the session. The run deadline bounds a
// client that would instead wait for bytes the server never sends: it
// would fail with ErrDeadline, not ErrMalformedFrame. In the control
// row the verdict agrees, so the hand-built header passes and the run
// fails only later, when the peer hangs up.
func TestPoolDecisionDesync(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	m := c.EvaluatorInputs
	_, evalBits := w.Inputs(1)
	for _, tc := range []struct {
		name   string
		pooled bool // the client's decision
		frame  int
		otByte ot.Protocol // the header's verdict
	}{
		{"client-hit/header-dh", true, 1 + 5 + (m+7)/8, ot.DH},
		{"client-miss/header-pooled", false, 1, ot.Pooled},
		{"control/client-hit/header-pooled", true, 1 + 5 + (m+7)/8, ot.Pooled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, peer := net.Pipe()
			defer peer.Close()
			s := scriptedSession(t, client, c, tc.pooled)
			s.opts.Retry.RunTimeout = 5 * time.Second
			go func() {
				req := make([]byte, tc.frame)
				if _, err := io.ReadFull(peer, req); err != nil {
					return
				}
				peer.Write(append([]byte{ackGo}, runHeader(c, byte(tc.otByte))...))
				peer.Close()
			}()
			_, err := s.Run(evalBits)
			desync := tc.pooled != (tc.otByte == ot.Pooled)
			if errors.Is(err, proto.ErrMalformedFrame) != desync {
				t.Fatalf("Run err = %v; want proto.ErrMalformedFrame exactly on a desync (%v)", err, desync)
			}
			if !s.broken {
				t.Fatal("session not broken after the desync")
			}
		})
	}
}

// TestPoolFillDesync: a client whose in-run fill decision disagrees
// with the server's, in both directions, against a real server over
// net.Pipe (writes block until read, so nothing hides in a socket
// buffer). The pools' levels still agree — only the client's target is
// moved after the dial — so every run is a hit on both ends.
//
// When the client alone fills, the server reads its result out of the
// fill's columns, takes the next column byte for an op and ends the
// session; the client's fill write then fails and the run ends typed.
// When the server alone fills, its fill swallows the client's result and
// next op frame; that run's answer never comes, and the client's run
// deadline ends it typed. Either way nothing hangs, no session panics,
// and every goroutine of both ends exits once both are closed.
func TestPoolFillDesync(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	m := c.EvaluatorInputs
	garblerBits, evalBits := w.Inputs(1)
	for _, tc := range []struct {
		name     string
		poolSize int
		target   int // the client's tampered target
		runs     int // runs until the typed error
	}{
		{"client-fills/server-not", 8 * m, 16 * m, 1},
		{"server-fills/client-not", 2 * m, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			srv, err := New(Config{
				Circuits: []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
				Seed:     31,
			})
			if err != nil {
				t.Fatal(err)
			}
			ln := newPipeListener()
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ln) }()
			sess, err := Dial("pipe", w.Name, c, Options{
				PoolSize: tc.poolSize,
				Retry:    RetryPolicy{RunTimeout: time.Second},
				Dialer:   func(string) (net.Conn, error) { return ln.Dial() },
			})
			if err != nil {
				t.Fatal(err)
			}
			sess.pool.SetTarget(tc.target)
			for run := 1; run <= tc.runs; run++ {
				_, err = sess.Run(evalBits)
				if run < tc.runs && err != nil {
					t.Fatalf("run %d: %v, want the desync to surface at run %d", run, err, tc.runs)
				}
			}
			if !errors.Is(err, ErrSessionClosed) && !errors.Is(err, proto.ErrDeadline) {
				t.Fatalf("run %d err = %v; want a typed ErrSessionClosed or proto.ErrDeadline", tc.runs, err)
			}
			t.Logf("run %d: %v", tc.runs, err)
			sess.Close()
			srv.Close()
			if err := <-done; err != nil {
				t.Errorf("Serve returned %v", err)
			}
			if st := srv.Stats(); st.SessionsPanicked != 0 {
				t.Errorf("SessionsPanicked = %d, want 0", st.SessionsPanicked)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("%d goroutines after both ends closed, baseline %d", n, baseline)
			}
		})
	}
}

// readLog counts the Read calls on one end of a connection and the
// bytes each returned.
type readLog struct {
	net.Conn
	mu    sync.Mutex
	reads []int
}

func (c *readLog) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.reads = append(c.reads, n)
	c.mu.Unlock()
	return n, err
}

// take returns the reads since the last take.
func (c *readLog) take() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.reads
	c.reads = nil
	return r
}

// TestPooledRunReads counts, with no clock, the Read calls a pooled
// DotProduct(4,16) run that carries no fill costs over net.Pipe, where
// one Write is read by one Read that has room for it. The server reads
// through one buffered reader: the whole op frame (op byte, 0xD5 header,
// correction bits) in one Read and the result in a second, on the plain
// and the integrity tier. The client reads the ack through its
// evaluator's buffered reader, so its first Read of the run returns the
// ack with the header, garbler labels and masked pairs behind it.
func TestPooledRunReads(t *testing.T) {
	w := workloads.DotProduct(4, 16)
	c := w.Build()
	m := c.EvaluatorInputs
	garblerBits, evalBits := w.Inputs(1)
	nFixed := c.GarblerInputs
	if c.HasConst {
		nFixed += 2
	}
	frame := 1 + 5 + (m+7)/8
	firstFlush := 1 + protoRunHeaderLen + 16*nFixed + 32*m
	for _, integrity := range []bool{false, true} {
		t.Run(map[bool]string{false: "plain", true: "integrity"}[integrity], func(t *testing.T) {
			srv, err := New(Config{
				Circuits: []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
				Seed:     41,
			})
			if err != nil {
				t.Fatal(err)
			}
			ln := newPipeListener()
			var sc *readLog
			accepted := make(chan struct{})
			done := make(chan error, 1)
			go func() { done <- srv.Serve(readLogListener{ln, &sc, accepted}) }()
			defer func() {
				srv.Close()
				if err := <-done; err != nil {
					t.Errorf("Serve returned %v", err)
				}
			}()
			var cc *readLog
			// 64 runs' worth: the pool stays above half its target over
			// the runs below, so none carries a fill.
			sess, err := Dial("pipe", w.Name, c, Options{PoolSize: 64 * m, Integrity: integrity, Dialer: func(string) (net.Conn, error) {
				conn, err := ln.Dial()
				cc = &readLog{Conn: conn}
				return cc, err
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			<-accepted
			// The server's last reads of the connect-time fill may land
			// after Dial returns; they are logged before it counts the
			// refill.
			for deadline := time.Now().Add(5 * time.Second); srv.Stats().PoolRefills != 1 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			for run := 0; run < 3; run++ {
				sc.take()
				cc.take()
				if _, err := sess.Run(evalBits); err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				// The server's last Read, of the result, returns once the
				// client's Run has written it; wait for it to be logged.
				var reads []int
				for deadline := time.Now().Add(5 * time.Second); len(reads) < 2 && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
					reads = append(reads, sc.take()...)
				}
				if len(reads) != 2 {
					t.Fatalf("run %d: the server made %d reads %v, want 2 (op frame, result)", run, len(reads), reads)
				}
				if !integrity && (reads[0] != frame || reads[1] != len(c.Outputs)) {
					t.Errorf("run %d: server reads of %v bytes, want [%d %d]", run, reads, frame, len(c.Outputs))
				}
				if cr := cc.take(); !integrity && cr[0] != firstFlush {
					t.Errorf("run %d: the client's first read returned %d bytes, want the %d-byte first flush", run, cr[0], firstFlush)
				}
			}
			if cs := sess.Stats(); cs.PoolHits != 3 || cs.PoolRefills != 1 {
				t.Fatalf("pool hits/refills = %d/%d, want 3 hits and no in-run fill", cs.PoolHits, cs.PoolRefills)
			}
		})
	}
}

// readLogListener wraps the one accepted connection in a readLog.
type readLogListener struct {
	*pipeListener
	conn     **readLog
	accepted chan struct{}
}

func (l readLogListener) Accept() (net.Conn, error) {
	conn, err := l.pipeListener.Accept()
	if err != nil {
		return nil, err
	}
	rl := &readLog{Conn: conn}
	*l.conn = rl
	close(l.accepted)
	return rl, nil
}

// cutConn is a server connection that, once armed with a byte count,
// writes that many more bytes and then closes itself.
type cutConn struct {
	net.Conn
	left atomic.Int64 // 0: unarmed
}

func (c *cutConn) Write(p []byte) (int, error) {
	left := c.left.Load()
	if left == 0 {
		return c.Conn.Write(p)
	}
	if int64(len(p)) < left {
		c.left.Store(left - int64(len(p)))
		return c.Conn.Write(p)
	}
	n, err := c.Conn.Write(p[:left])
	c.left.Store(0)
	c.Conn.Close()
	if err == nil {
		err = io.ErrClosedPipe
	}
	return n, err
}

// muteConn is a client connection that, once armed with a count of
// writes, lets that many more through and then drops every later one
// while reporting it written: the client goes silent without knowing.
type muteConn struct {
	net.Conn
	armed atomic.Bool
	pass  atomic.Int64
}

func (c *muteConn) Write(p []byte) (int, error) {
	if c.armed.Load() && c.pass.Add(-1) < 0 {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestPiecedRunFailures breaks a pooled run of three correction pieces
// at a piece boundary, over net.Pipe against a real server: a client
// whose writes stop after its first correction piece, and a server whose
// connection closes once its first masked piece has left. The client's
// run ends in a typed ErrSessionClosed on both, the server's run fails
// (by its run deadline, when the client went silent), no session
// panics, and once both ends are closed no session and no goroutine of
// either is left.
func TestPiecedRunFailures(t *testing.T) {
	w := workloads.AddN(2*ot.DerandPiece + 5)
	c := w.Build()
	m := c.EvaluatorInputs
	garblerBits, evalBits := w.Inputs(1)
	nFixed := c.GarblerInputs
	if c.HasConst {
		nFixed += 2
	}
	firstFlush := int64(1 + protoRunHeaderLen + 16*nFixed + 32*ot.DerandPiece)
	for _, tc := range []struct {
		name      string
		mute      bool  // the client's writes after its op frame and first piece are dropped
		serverCut int64 // the server's connection closes after this many run bytes
	}{
		{"client-silent-after-first-piece", true, 0},
		{"server-closes-after-first-masked-piece", false, firstFlush},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			srv, err := New(Config{
				Circuits:    []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
				Seed:        67,
				MaxPoolSize: 2 * m,
				RunTimeout:  time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			ln := newPipeListener()
			var sc *cutConn
			accepted := make(chan struct{})
			done := make(chan error, 1)
			go func() { done <- srv.Serve(cutListener{ln, &sc, accepted}) }()
			var cc *muteConn
			sess, err := Dial("pipe", w.Name, c, Options{PoolSize: 2 * m, Dialer: func(string) (net.Conn, error) {
				conn, err := ln.Dial()
				cc = &muteConn{Conn: conn}
				return cc, err
			}})
			if err != nil {
				t.Fatal(err)
			}
			<-accepted
			if tc.mute {
				cc.pass.Store(2) // the op frame and the first piece
				cc.armed.Store(true)
			} else {
				sc.left.Store(tc.serverCut)
			}
			if _, err := sess.Run(evalBits); !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("Run err = %v, want a typed ErrSessionClosed", err)
			} else {
				t.Logf("client: %v", err)
			}
			sess.Close()
			srv.Close()
			if err := <-done; err != nil {
				t.Errorf("Serve returned %v", err)
			}
			st := srv.Stats()
			if st.RunsFailed != 1 || st.RunsServed != 0 || st.SessionsPanicked != 0 || st.ActiveSessions != 0 {
				t.Errorf("server runs failed/served %d/%d, sessions panicked %d, active %d; want 1/0, 0, 0",
					st.RunsFailed, st.RunsServed, st.SessionsPanicked, st.ActiveSessions)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("%d goroutines after both ends closed, baseline %d", n, baseline)
			}
		})
	}
}

// cutListener wraps the one accepted connection in a cutConn.
type cutListener struct {
	*pipeListener
	conn     **cutConn
	accepted chan struct{}
}

func (l cutListener) Accept() (net.Conn, error) {
	conn, err := l.pipeListener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &cutConn{Conn: conn}
	*l.conn = cc
	close(l.accepted)
	return cc, nil
}
