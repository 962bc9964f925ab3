package server

import (
	"errors"
	"net"
	"testing"

	"haac/internal/builder"
	"haac/internal/circuit"
	"haac/internal/ot"
)

// pipeListener hands out pre-connected net.Pipe ends: the allocation
// test runs the real server accept/session machinery over a fully
// in-process transport, so the only mallocs measured are the serving
// layer's own.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Dial() (net.Conn, error) {
	client, srv := net.Pipe()
	select {
	case l.conns <- srv:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	return nil
}

func (l *pipeListener) Addr() net.Addr {
	return &net.UnixAddr{Name: "pipe", Net: "pipe"}
}

// garblerOnlyMul is a circuit whose inputs all belong to the garbler,
// so runs need no OT — isolating the serving layer's own allocation
// behavior from public-key crypto, which inherently allocates.
func garblerOnlyMul(width int) *circuit.Circuit {
	b := builder.New()
	x := b.GarblerInputs(width)
	y := b.GarblerInputs(width)
	b.OutputWord(b.Mul(x, y))
	return b.MustBuild()
}

// TestServingZeroSteadyStateAllocs is the serving layer's allocation
// gate: with a precompiled plan on both ends, a steady-state run over
// an established session — op frame, ack, header, labels, level-
// streamed tables, decode bits, result — allocates nothing on either
// side. Race-gated because the detector defeats sync.Pool.
func TestServingZeroSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := garblerOnlyMul(16)
	and, _, _ := c.CountOps()
	if and < 200 {
		t.Fatalf("circuit too small to catch per-gate allocations (%d ANDs)", and)
	}
	g := make([]bool, c.GarblerInputs)
	for i := range g {
		g[i] = i%3 == 0
	}
	srv, err := New(Config{
		Circuits:        []CircuitSpec{{ID: "mul", Circuit: c, Inputs: func() []bool { return g }}},
		Seed:            21,
		AllowInsecureOT: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	}()

	plan, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Dial("pipe", "mul", c, Options{
		OT:     ot.Insecure,
		Plan:   plan,
		Dialer: func(string) (net.Conn, error) { return ln.Dial() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	want, err := c.Eval(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		out, err := sess.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatal("wrong output")
			}
		}
	}
	run() // warm pools and one-time lazies on both ends

	if avg := testing.AllocsPerRun(50, run); avg > 0 {
		t.Fatalf("serving run allocates %.2f times in steady state, want 0", avg)
	}
}

// TestPipeListenerClose covers the helper's refusal paths.
func TestPipeListenerClose(t *testing.T) {
	ln := newPipeListener()
	ln.Close()
	ln.Close() // idempotent
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept after close: %v", err)
	}
	if _, err := ln.Dial(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Dial after close: %v", err)
	}
	if ln.Addr() == nil {
		t.Fatal("nil Addr")
	}
}
