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

// twoPartyMul multiplies a garbler word by an evaluator word: the
// pooled tier's runs draw the evaluator's labels from the session's OT
// pool, whose derandomization round is allocation-free.
func twoPartyMul(width int) *circuit.Circuit {
	b := builder.New()
	x := b.GarblerInputs(width)
	y := b.EvaluatorInputs(width)
	b.OutputWord(b.Mul(x, y))
	return b.MustBuild()
}

// TestServingZeroSteadyStateAllocs is the serving layer's allocation
// gate: with a precompiled plan on both ends, a steady-state run over
// an established session — op frame, ack, header, labels, level-
// streamed tables, decode bits, result, and on the pooled tier an
// in-run pool fill — allocates nothing on either side, on every wire
// tier and with both ends' byte budgets armed. Race-gated because the
// detector defeats sync.Pool.
func TestServingZeroSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const measured = 50 // testing.AllocsPerRun adds one warm-up run
	for _, tc := range []struct {
		name      string
		integrity bool
		pooled    bool
		budget    int64 // MaxRunBytes on both ends
	}{
		{name: "plain"},
		{name: "integrity", integrity: true},
		{name: "pooled", pooled: true},
		{name: "pooled+integrity", pooled: true, integrity: true},
		{name: "run-budgets", budget: 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := garblerOnlyMul(16)
			opts := Options{OT: ot.Insecure, Integrity: tc.integrity, MaxRunBytes: tc.budget}
			if tc.pooled {
				c = twoPartyMul(16)
				// Two runs' worth: every run leaves the pool half short and
				// carries an in-run fill, the measured ones included.
				opts = Options{Integrity: tc.integrity, PoolSize: 2 * c.EvaluatorInputs}
			}
			and, _, _ := c.CountOps()
			if and < 200 {
				t.Fatalf("circuit too small to catch per-gate allocations (%d ANDs)", and)
			}
			g := make([]bool, c.GarblerInputs)
			for i := range g {
				g[i] = i%3 == 0
			}
			e := make([]bool, c.EvaluatorInputs)
			for i := range e {
				e[i] = i%5 == 1
			}
			srv, err := New(Config{
				Circuits:        []CircuitSpec{{ID: "mul", Circuit: c, Inputs: func() []bool { return g }}},
				Seed:            21,
				AllowInsecureOT: true,
				MaxRunBytes:     tc.budget,
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

			if opts.Plan, err = circuit.NewPlan(c); err != nil {
				t.Fatal(err)
			}
			opts.Dialer = func(string) (net.Conn, error) { return ln.Dial() }
			sess, err := Dial("pipe", "mul", c, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if sess.Integrity() != tc.integrity || sess.Pooled() != tc.pooled {
				t.Fatalf("negotiated integrity=%v pooled=%v, want %v/%v", sess.Integrity(), sess.Pooled(), tc.integrity, tc.pooled)
			}

			want, err := c.Eval(g, e)
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				out, err := sess.Run(e)
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

			if avg := testing.AllocsPerRun(measured, run); avg > 0 {
				t.Fatalf("serving run allocates %.2f times in steady state, want 0", avg)
			}
			cs := sess.Stats()
			// The warm run, AllocsPerRun's own warm-up and the measured
			// runs each carried a fill, after the connect-time one.
			if fills := uint64(1 + 1 + 1 + measured); tc.pooled && (cs.PoolMisses != 0 || cs.PoolRefills != fills) {
				t.Fatalf("pooled runs: %d misses, %d refills; want every run a hit carrying a fill (%d refills)", cs.PoolMisses, cs.PoolRefills, fills)
			}
		})
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
