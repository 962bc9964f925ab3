package server

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"haac/internal/circuit"
	"haac/internal/ot"
	"haac/internal/proto"
	"haac/internal/workloads"
)

// turnConn records the client's side of a connection: turns counts the
// reads that follow a write — one per time the client hands the
// conversation to the server and waits for its answer.
type turnConn struct {
	net.Conn
	mu    sync.Mutex
	wrote bool
	turns int
}

func (c *turnConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.wrote = true
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *turnConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.wrote {
		c.turns++
		c.wrote = false
	}
	c.mu.Unlock()
	return c.Conn.Read(p)
}

// take returns the turns since the last take.
func (c *turnConn) take() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.turns
	c.turns = 0
	return n
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
// on-demand DH OT.
func TestRunRoundTrips(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	m := c.EvaluatorInputs
	garblerBits, evalBits := w.Inputs(1)
	want, err := c.Eval(garblerBits, evalBits)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Circuits: []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
		Seed:     23,
	})
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
		poolSize  int // below m: every run misses
		integrity bool
		turns     int
	}{
		{"hit", 8 * m, false, 1},
		{"hit+integrity", 8 * m, true, 1},
		{"miss", 1, false, 2},
		{"miss+integrity", 1, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cc *turnConn
			dial := func(addr string) (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				cc = &turnConn{Conn: conn}
				return cc, err
			}
			sess, err := Dial(tcp.Addr().String(), w.Name, c, Options{PoolSize: tc.poolSize, Integrity: tc.integrity, Dialer: dial})
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
				got, err := sess.Run(evalBits)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("run %d: output %d diverged from the oracle", run, i)
					}
				}
				if n := cc.take(); n != tc.turns {
					t.Errorf("run %d: %d write→read turns, want %d", run, n, tc.turns)
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
			hits, misses := uint64(runs), uint64(0)
			if tc.poolSize < m {
				hits, misses = 0, runs
			}
			if cs.PoolHits != hits || cs.PoolMisses != misses || cs.PoolRefills != 1 {
				t.Fatalf("pool hits/misses/refills = %d/%d/%d, want %d/%d/1", cs.PoolHits, cs.PoolMisses, cs.PoolRefills, hits, misses)
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
