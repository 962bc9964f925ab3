package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"haac/internal/circuit"
	"haac/internal/ot"
	"haac/internal/workloads"
)

// startServer launches a server on a loopback TCP listener and returns
// it with its address. Cleanup closes the server and joins Serve.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// TestConcurrentSessionsByteIdentical is the acceptance scenario: 16
// concurrent evaluator sessions against one server over loopback TCP
// all produce outputs identical to the plaintext oracle, with exactly
// one plan build for the shared circuit (cache counters and the global
// plan-build hook both asserted).
func TestConcurrentSessionsByteIdentical(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)

	buildsBefore := circuit.PlanBuilds()
	srv, addr := startServer(t, Config{
		Circuits: []CircuitSpec{{
			ID:      w.Name,
			Circuit: c,
			Inputs:  func() []bool { return garblerBits },
		}},
		Seed:            42,
		AllowInsecureOT: true,
	})

	const sessions = 16
	const runsPerSession = 3
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := Dial(addr, w.Name, c, Options{OT: ot.Insecure})
			if err != nil {
				errc <- fmt.Errorf("session %d: dial: %w", i, err)
				return
			}
			defer sess.Close()
			if sess.NumSlots() <= 0 || sess.NumSlots() > c.NumWires() {
				errc <- fmt.Errorf("session %d: implausible NumSlots %d", i, sess.NumSlots())
				return
			}
			for run := 0; run < runsPerSession; run++ {
				_, evalBits := w.Inputs(int64(i*100 + run))
				want, err := c.Eval(garblerBits, evalBits)
				if err != nil {
					errc <- err
					return
				}
				got, err := sess.Run(evalBits)
				if err != nil {
					errc <- fmt.Errorf("session %d run %d: %w", i, run, err)
					return
				}
				for j := range want {
					if got[j] != want[j] {
						errc <- fmt.Errorf("session %d run %d: output %d = %v, want %v", i, run, j, got[j], want[j])
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Drain so every session goroutine has finalized its counters.
	srv.Close()
	st := srv.Stats()
	// Sessions racing the cold start that join the in-flight build count
	// as misses (only completed builds are hits), so the exact hit/miss
	// split depends on scheduling — but they always sum to the session
	// count, and the singleflight property is exact: one build in the
	// server's cache plus one in the client-side cache the 16 plan-less
	// sessions share.
	if st.CacheMisses < 1 {
		t.Errorf("cache misses = %d, want >= 1", st.CacheMisses)
	}
	if st.CacheHits+st.CacheMisses != sessions {
		t.Errorf("cache hits+misses = %d+%d, want %d lookups", st.CacheHits, st.CacheMisses, sessions)
	}
	if got := circuit.PlanBuilds() - buildsBefore; got != 2 {
		t.Errorf("plans built = %d, want exactly 2 (one per side)", got)
	}
	if st.RunsServed != sessions*runsPerSession {
		t.Errorf("runs served = %d, want %d", st.RunsServed, sessions*runsPerSession)
	}
	if st.SessionsTotal != sessions {
		t.Errorf("sessions total = %d, want %d", st.SessionsTotal, sessions)
	}
	if st.SessionsRefused != 0 {
		t.Errorf("sessions refused = %d, want 0 without an admission cap", st.SessionsRefused)
	}
	if st.BytesOut == 0 || st.BytesIn == 0 {
		t.Errorf("byte counters not accumulating: out=%d in=%d", st.BytesOut, st.BytesIn)
	}
}

// TestMultipleCircuitsAndOTProtocols: sessions for different circuits
// and OT protocols coexist; each circuit builds one plan.
func TestMultipleCircuitsAndOTProtocols(t *testing.T) {
	w1 := workloads.DotProduct(2, 8)
	w2 := workloads.AddN(16)
	c1, c2 := w1.Build(), w2.Build()
	g1, _ := w1.Inputs(3)
	g2, _ := w2.Inputs(3)
	srv, addr := startServer(t, Config{
		Circuits: []CircuitSpec{
			{ID: w1.Name, Circuit: c1, Inputs: func() []bool { return g1 }},
			{ID: w2.Name, Circuit: c2, Inputs: func() []bool { return g2 }},
		},
		Seed:            7,
		AllowInsecureOT: true,
	})
	for _, tc := range []struct {
		w    workloads.Workload
		c    *circuit.Circuit
		g    []bool
		otp  ot.Protocol
		seed int64
	}{
		{w1, c1, g1, ot.Insecure, 5},
		{w2, c2, g2, ot.DH, 6},
		{w1, c1, g1, ot.DH, 8},
	} {
		sess, err := Dial(addr, tc.w.Name, tc.c, Options{OT: tc.otp})
		if err != nil {
			t.Fatalf("%s/ot=%d: %v", tc.w.Name, tc.otp, err)
		}
		_, e := tc.w.Inputs(tc.seed)
		want, err := tc.c.Eval(tc.g, e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Run(e)
		if err != nil {
			t.Fatalf("%s/ot=%d: %v", tc.w.Name, tc.otp, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s/ot=%d: output %d mismatch", tc.w.Name, tc.otp, j)
			}
		}
		sess.Close()
	}
	// Sessions dial one after another, so each finds any earlier build of
	// its circuit completed: the split is exact.
	if st := srv.Stats(); st.CacheMisses != 2 || st.CacheHits != 1 {
		t.Errorf("cache hit/miss = %d/%d, want 1/2 (one miss per circuit, a hit for the repeat)", st.CacheHits, st.CacheMisses)
	}
}

// TestHandshakeRefusals: unknown ids, digest mismatches, bad versions
// and bad OT values all fail typed at the handshake, before any
// protocol byte flows.
func TestHandshakeRefusals(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	_, addr := startServer(t, Config{
		Circuits: []CircuitSpec{{ID: "add8", Circuit: c}},
	})

	if _, err := Dial(addr, "no-such-circuit", c, Options{}); !errors.Is(err, ErrUnknownCircuit) {
		t.Errorf("unknown circuit: got %v, want ErrUnknownCircuit", err)
	}

	other := workloads.AddN(16).Build()
	if _, err := Dial(addr, "add8", other, Options{}); !errors.Is(err, ErrDigestMismatch) {
		t.Errorf("digest mismatch: got %v, want ErrDigestMismatch", err)
	}

	// Bad OT byte in the hello.
	if _, err := Dial(addr, "add8", c, Options{OT: ot.Protocol(99)}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("bad OT: got %v, want ErrBadRequest", err)
	}

	// Wrong handshake version, sent by hand.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	raw := []byte{0x48, 0x41, 0x41, 0x53, 99, 0, 0, 4, 0, 'a', 'd', 'd', '8'}
	raw = append(raw, make([]byte, 32)...)
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	if _, err := readReply(conn); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: got %v, want ErrBadVersion", err)
	}

	// The retired versions — 1, the run sequence whose choice correction
	// waited for the header, 2, pools topped up by background refill ops
	// between runs, and 3, the pool's first fill asked for by a refill op
	// after the handshake: a permanent refusal, so a retrying client dials
	// exactly once.
	for _, version := range []byte{1, 2, 3} {
		var dials atomic.Int32
		retired := func(addr string) (net.Conn, error) {
			dials.Add(1)
			conn, err := net.Dial("tcp", addr)
			return &helloVersionConn{Conn: conn, version: version}, err
		}
		if _, err := Dial(addr, "add8", c, Options{Retry: robustRetry(47), Dialer: retired}); !errors.Is(err, ErrBadVersion) {
			t.Errorf("v%d hello: got %v, want ErrBadVersion", version, err)
		}
		if n := dials.Load(); n != 1 {
			t.Errorf("v%d hello dialed %d times, want 1 (no retry)", version, n)
		}
	}

	// Garbage magic: the server refuses and closes.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := readReply(conn2); !errors.Is(err, ErrBadRequest) {
		t.Errorf("bad magic: got %v, want ErrBadRequest", err)
	}
}

// helloVersionConn rewrites the version byte of the first frame it
// writes — the client hello — to version.
type helloVersionConn struct {
	net.Conn
	version byte
	sent    bool
}

func (c *helloVersionConn) Write(p []byte) (int, error) {
	if !c.sent {
		c.sent = true
		p = append([]byte(nil), p...)
		p[4] = c.version
	}
	return c.Conn.Write(p)
}

// TestClientSidePlan: a client running its own precompiled plan gets
// the same outputs.
func TestClientSidePlan(t *testing.T) {
	w := workloads.DotProduct(2, 8)
	c := w.Build()
	g, _ := w.Inputs(2)
	_, addr := startServer(t, Config{
		Circuits:        []CircuitSpec{{ID: "dp", Circuit: c, Inputs: func() []bool { return g }}},
		Seed:            3,
		AllowInsecureOT: true,
	})
	p, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Dial(addr, "dp", c, Options{OT: ot.Insecure, Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for run := 0; run < 3; run++ {
		_, e := w.Inputs(int64(run))
		want, err := c.Eval(g, e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Run(e)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("run %d output %d mismatch", run, j)
			}
		}
	}
}

// TestGracefulClose: Close disconnects idle sessions, lets in-flight
// runs finish, and later Runs report a closed/draining session.
func TestGracefulClose(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	g, _ := w.Inputs(1)
	srv, err := New(Config{
		Circuits:        []CircuitSpec{{ID: "add", Circuit: c, Inputs: func() []bool { return g }}},
		Seed:            9,
		AllowInsecureOT: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sess, err := Dial(ln.Addr().String(), "add", c, Options{OT: ot.Insecure})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	_, e := w.Inputs(2)
	if _, err := sess.Run(e); err != nil {
		t.Fatal(err)
	}

	// The session is idle now; Close must not hang on it.
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on an idle session")
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v", err)
	}

	if _, err := sess.Run(e); err == nil {
		t.Fatal("Run succeeded against a closed server")
	} else if !errors.Is(err, ErrSessionClosed) && !errors.Is(err, ErrDraining) {
		t.Fatalf("post-close Run error not typed: %v", err)
	}

	// New connections are refused outright.
	if _, err := Dial(ln.Addr().String(), "add", c, Options{}); err == nil {
		t.Fatal("Dial succeeded against a closed server")
	}
	// Serve on a closed server refuses too.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln2); !errors.Is(err, ErrDraining) {
		t.Fatalf("Serve after Close: got %v, want ErrDraining", err)
	}
	// Close twice is fine.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionByeEndsCleanly: Close sends the goodbye frame; the server
// ends the session without counting an error.
func TestSessionByeEndsCleanly(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	srv, addr := startServer(t, Config{
		Circuits:        []CircuitSpec{{ID: "add", Circuit: c}},
		AllowInsecureOT: true,
	})
	sess, err := Dial(addr, "add", c, Options{OT: ot.Insecure})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing twice is a no-op; Run after Close is typed.
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(nil); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Run after Close: got %v, want ErrSessionClosed", err)
	}
	// The server-side session winds down; poll briefly for the gauge.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ActiveSessions != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Stats().ActiveSessions; got != 0 {
		t.Fatalf("active sessions = %d after goodbye, want 0", got)
	}
}

// TestNewValidation: bad configurations fail fast.
func TestNewValidation(t *testing.T) {
	c := workloads.AddN(8).Build()
	cases := []Config{
		{},
		{Circuits: []CircuitSpec{{ID: "", Circuit: c}}},
		{Circuits: []CircuitSpec{{ID: "x", Circuit: nil}}},
		{Circuits: []CircuitSpec{{ID: "x", Circuit: c}, {ID: "x", Circuit: c}}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	srv, err := New(Config{Circuits: []CircuitSpec{{ID: "x", Circuit: c}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.Digest("x"); !ok {
		t.Error("Digest(x) not found")
	}
	if _, ok := srv.Digest("y"); ok {
		t.Error("Digest(y) found")
	}
}

func TestPlanCacheLRUAndSingleflight(t *testing.T) {
	mk := func(n int) func() (*circuit.Plan, error) {
		c := workloads.AddN(n).Build()
		return func() (*circuit.Plan, error) { return circuit.NewPlan(c) }
	}
	pc := NewPlanCache(2)

	// Singleflight: 8 concurrent first requests share one build.
	buildsBefore := circuit.PlanBuilds()
	var wg sync.WaitGroup
	plans := make([]*circuit.Plan, 8)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := pc.Get("a", mk(8))
			if err != nil {
				t.Error(err)
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	if got := circuit.PlanBuilds() - buildsBefore; got != 1 {
		t.Fatalf("singleflight built %d plans, want 1", got)
	}
	for _, p := range plans[1:] {
		if p != plans[0] {
			t.Fatal("concurrent getters received different plans")
		}
	}
	// Only completed builds count as hits: getters that joined the
	// in-flight build recorded misses, so the split is scheduling-
	// dependent, but every lookup is counted and at least the builder
	// missed.
	cc := pc.Counters()
	if cc.Misses < 1 || cc.Hits+cc.Misses != 8 {
		t.Fatalf("counters = %+v, want >=1 miss and 8 lookups", cc)
	}

	// LRU: touching a, then adding b and c evicts... a stays (recently
	// used), b is evicted when c arrives after a's touch.
	if _, err := pc.Get("b", mk(12)); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Get("a", mk(8)); err != nil { // touch a
		t.Fatal(err)
	}
	if _, err := pc.Get("c", mk(16)); err != nil { // evicts b
		t.Fatal(err)
	}
	if pc.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", pc.Len())
	}
	if cc := pc.Counters(); cc.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", cc.Evictions)
	}
	buildsBefore = circuit.PlanBuilds()
	if _, err := pc.Get("b", mk(12)); err != nil { // rebuilt after eviction
		t.Fatal(err)
	}
	if got := circuit.PlanBuilds() - buildsBefore; got != 1 {
		t.Fatalf("evicted entry rebuilt %d times, want 1", got)
	}

	// Failed builds are not cached.
	boom := errors.New("boom")
	if _, err := pc.Get("bad", func() (*circuit.Plan, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	ok := false
	if _, err := pc.Get("bad", func() (*circuit.Plan, error) { ok = true; return circuit.NewPlan(workloads.AddN(8).Build()) }); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("failed build was cached; retry did not rebuild")
	}
}

// TestRunnerGoroutinesReleasedOnClose: every garbler runner owns a
// garble goroutine, whether it sits in the runner pool or a live
// session still holds it when the drain starts, and each runner is
// garbling or has garbled its next run ahead; Close returns them all,
// and the process is back at its goroutine baseline. The runner
// free-list is what makes that possible: a sync.Pool would drop runners
// without ever closing them. (internal/proto's
// TestAheadGoroutinesReleasedOnClose holds a run ahead mid-garble until
// the close lands.)
func TestRunnerGoroutinesReleasedOnClose(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	g, _ := w.Inputs(1)
	baseline := runtime.NumGoroutine()

	srv, err := New(Config{
		Circuits:        []CircuitSpec{{ID: "dp", Circuit: c, Inputs: func() []bool { return g }}},
		Seed:            13,
		AllowInsecureOT: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	// Two concurrent sessions make two runners; one stays open across
	// Close.
	var open []*Session
	for i := 0; i < 2; i++ {
		sess, err := Dial(ln.Addr().String(), "dp", c, Options{OT: ot.Insecure})
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, sess)
		_, e := w.Inputs(int64(i))
		if _, err := sess.Run(e); err != nil {
			t.Fatal(err)
		}
	}
	if n := garbleGoroutines(); n != 2 {
		t.Fatalf("%d garble goroutines for two runners, want 2", n)
	}
	open[0].Close()
	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	open[1].Close()

	// Close has waited for each goroutine's last statement; poll for the
	// moment they need to leave the scheduler (liveness only — no timing
	// asserted).
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Close, baseline %d:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// garbleGoroutines counts the live garble goroutines of garbler runners.
func garbleGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("(*tableStream).garbleLoop"))
}

// TestServerEvictionUnderSessions: a cache smaller than the circuit set
// still serves correctly, counting evictions.
func TestServerEvictionUnderSessions(t *testing.T) {
	ws := []workloads.Workload{workloads.AddN(8), workloads.AddN(12), workloads.AddN(16)}
	var specs []CircuitSpec
	circs := map[string]*circuit.Circuit{}
	for _, w := range ws {
		c := w.Build()
		circs[w.Name] = c
		specs = append(specs, CircuitSpec{ID: w.Name, Circuit: c})
	}
	srv, addr := startServer(t, Config{Circuits: specs, PlanCacheSize: 1, Seed: 4, AllowInsecureOT: true})
	for round := 0; round < 2; round++ {
		for _, w := range ws {
			c := circs[w.Name]
			sess, err := Dial(addr, w.Name, c, Options{OT: ot.Insecure})
			if err != nil {
				t.Fatal(err)
			}
			_, e := w.Inputs(int64(round))
			g := make([]bool, c.GarblerInputs)
			want, err := c.Eval(g, e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sess.Run(e)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s round %d: output %d mismatch", w.Name, round, j)
				}
			}
			sess.Close()
		}
	}
	st := srv.Stats()
	if st.CacheEvictions == 0 {
		t.Errorf("expected evictions with cache size 1 over 3 circuits, got %+v", st)
	}
	if st.CacheMisses < 3 {
		t.Errorf("misses = %d, want >= 3", st.CacheMisses)
	}
}
