package server

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"haac/internal/circuit"
	"haac/internal/ot"
	"haac/internal/workloads"
)

// stallAfterAck performs a full handshake and the opRun/ackGo exchange
// by hand, then goes silent — the adversarial client that used to pin
// Server.Close forever. Returns the connection so the caller controls
// its lifetime.
func stallAfterAck(t *testing.T, addr, id string, c *circuit.Circuit) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeHello(conn, hello{ot: ot.DH, id: id, digest: circuit.Digest(c)}); err != nil {
		t.Fatal(err)
	}
	if _, err := readReply(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{opRun}); err != nil {
		t.Fatal(err)
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil || ack[0] != ackGo {
		t.Fatalf("ack = %v, %v", ack[0], err)
	}
	// The server is now mid-run: it streams labels and blocks in OT /
	// result reads that this client will never answer.
	return conn
}

// TestCloseForceClosesStalledMidRunClient is the drain-stall fix: a
// client that completes the handshake, requests a run and then goes
// silent mid-OT must not hang Server.Close — after DrainTimeout the
// session is force-closed and counted.
func TestCloseForceClosesStalledMidRunClient(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	srv, addr := startServer(t, Config{
		Circuits:     []CircuitSpec{{ID: "add", Circuit: c}},
		Seed:         11,
		DrainTimeout: 200 * time.Millisecond,
	})
	conn := stallAfterAck(t, addr, "add", c)
	defer conn.Close()

	closed := make(chan struct{})
	start := time.Now()
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(15 * time.Second):
		t.Fatal("Close hung on a client stalled mid-run")
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("Close returned in %v, before the %v drain grace", elapsed, 200*time.Millisecond)
	}
	st := srv.Stats()
	if st.SessionsForceClosed != 1 {
		t.Errorf("SessionsForceClosed = %d, want 1", st.SessionsForceClosed)
	}
	if st.ActiveSessions != 0 {
		t.Errorf("ActiveSessions = %d after Close, want 0", st.ActiveSessions)
	}
}

// TestRunTimeoutUnsticksStalledClient: with a per-run deadline the
// session errors out on its own — no Close needed — and the failure is
// counted.
func TestRunTimeoutUnsticksStalledClient(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	srv, addr := startServer(t, Config{
		Circuits:   []CircuitSpec{{ID: "add", Circuit: c}},
		Seed:       12,
		RunTimeout: 150 * time.Millisecond,
	})
	conn := stallAfterAck(t, addr, "add", c)
	defer conn.Close()

	deadline := time.Now().Add(15 * time.Second)
	for srv.Stats().ActiveSessions != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := srv.Stats()
	if st.ActiveSessions != 0 {
		t.Fatalf("stalled session still active after run deadline: %+v", st)
	}
	if st.RunsFailed != 1 {
		t.Errorf("RunsFailed = %d, want 1", st.RunsFailed)
	}
	if st.RunsServed != 0 {
		t.Errorf("RunsServed = %d, want 0", st.RunsServed)
	}
}

// TestMaxSessionsShedsExactlyExcess: with N sessions held open against
// a cap of N, every further connection is refused typed and counted
// once; freeing one slot re-admits.
func TestMaxSessionsShedsExactlyExcess(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	g, _ := w.Inputs(1)
	const maxSess, excess = 2, 2
	srv, addr := startServer(t, Config{
		Circuits:        []CircuitSpec{{ID: "add", Circuit: c, Inputs: func() []bool { return g }}},
		Seed:            5,
		MaxSessions:     maxSess,
		AllowInsecureOT: true,
	})

	var held []*Session
	for i := 0; i < maxSess; i++ {
		sess, err := Dial(addr, "add", c, Options{OT: ot.Insecure})
		if err != nil {
			t.Fatalf("admitted dial %d: %v", i, err)
		}
		defer sess.Close()
		held = append(held, sess)
	}
	for i := 0; i < excess; i++ {
		if _, err := Dial(addr, "add", c, Options{OT: ot.Insecure}); !errors.Is(err, ErrBusy) {
			t.Fatalf("over-cap dial %d: got %v, want ErrBusy", i, err)
		}
	}
	if st := srv.Stats(); st.SessionsRefused != excess {
		t.Fatalf("SessionsRefused = %d, want %d", st.SessionsRefused, excess)
	}

	// Freeing a slot re-admits: close one session, wait for the server
	// to retire it, and dial again.
	held[0].Close()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().ActiveSessions >= maxSess && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	sess, err := Dial(addr, "add", c, Options{OT: ot.Insecure})
	if err != nil {
		t.Fatalf("dial after freeing a slot: %v", err)
	}
	defer sess.Close()
	_, e := w.Inputs(2)
	if _, err := sess.Run(e); err != nil {
		t.Fatalf("run on re-admitted session: %v", err)
	}
	if st := srv.Stats(); st.SessionsRefused != excess {
		t.Errorf("SessionsRefused = %d after re-admission, want still %d", st.SessionsRefused, excess)
	}
}

// TestInsecureOTPolicy: a remote peer cannot downgrade the session to
// the choice-revealing OT unless the operator opted in.
func TestInsecureOTPolicy(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	g, _ := w.Inputs(1)
	_, addr := startServer(t, Config{
		Circuits: []CircuitSpec{{ID: "add", Circuit: c, Inputs: func() []bool { return g }}},
		Seed:     8,
	})
	if _, err := Dial(addr, "add", c, Options{OT: ot.Insecure}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("insecure OT against a default server: got %v, want ErrBadRequest", err)
	}
	// The secure protocols still work on the same server.
	sess, err := Dial(addr, "add", c, Options{OT: ot.DH})
	if err != nil {
		t.Fatalf("DH dial: %v", err)
	}
	defer sess.Close()
	_, e := w.Inputs(4)
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
			t.Fatalf("output %d mismatch", j)
		}
	}
}

// TestRunLatencyCounters: completed runs accumulate wall-clock time.
func TestRunLatencyCounters(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	g, _ := w.Inputs(1)
	srv, addr := startServer(t, Config{
		Circuits:        []CircuitSpec{{ID: "add", Circuit: c, Inputs: func() []bool { return g }}},
		Seed:            10,
		AllowInsecureOT: true,
	})
	sess, err := Dial(addr, "add", c, Options{OT: ot.Insecure})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	_, e := w.Inputs(2)
	for i := 0; i < 3; i++ {
		if _, err := sess.Run(e); err != nil {
			t.Fatal(err)
		}
	}
	// The client observes the result a hair before the server bumps its
	// counters, so poll.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().RunsServed != 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := srv.Stats()
	if st.RunsServed != 3 {
		t.Fatalf("RunsServed = %d, want 3", st.RunsServed)
	}
	if st.RunNanos == 0 {
		t.Fatal("RunNanos = 0 after 3 completed runs")
	}
}
