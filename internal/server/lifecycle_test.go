package server_test

import (
	"errors"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"haac/internal/fleet"
	"haac/internal/ot"
	"haac/internal/server"
	"haac/internal/workloads"
)

// The lifecycle table: haacd's Server and haacfleet's Fleet share one
// accept loop and one drain (server.Daemon), and every row holds both
// daemons to it.

// lifecycleDaemon is one daemon as the table drives it. fleet and
// backend are set for the proxy only.
type lifecycleDaemon struct {
	serve         func(net.Listener) error
	close         func() error
	acceptRetries func() uint64
	forceClosed   func() uint64
	closedErr     error

	fleet   *fleet.Fleet
	backend string
}

var lifecycleWorkload = workloads.AddN(8)

// lifecycleServerConfig serves lifecycleWorkload with seed-1 garbler
// bits.
func lifecycleServerConfig() server.Config {
	g, _ := lifecycleWorkload.Inputs(1)
	return server.Config{
		Circuits: []server.CircuitSpec{{
			ID:      lifecycleWorkload.Name,
			Circuit: lifecycleWorkload.Build(),
			Inputs:  func() []bool { return g },
		}},
		Seed:            6,
		AllowInsecureOT: true,
		DrainTimeout:    50 * time.Millisecond,
	}
}

func startServerDaemon(t *testing.T) *lifecycleDaemon {
	srv, err := server.New(lifecycleServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &lifecycleDaemon{
		serve:         srv.Serve,
		close:         srv.Close,
		acceptRetries: func() uint64 { return srv.Stats().AcceptRetries },
		forceClosed:   func() uint64 { return srv.Stats().SessionsForceClosed },
		closedErr:     server.ErrDraining,
	}
}

// startFleetDaemon starts a backend server on its own listener and
// returns the proxy in front of it, not yet serving.
func startFleetDaemon(t *testing.T) *lifecycleDaemon {
	srv, err := server.New(lifecycleServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ln := listenLoopback(t)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	f, err := fleet.New(fleet.Config{
		Backends:      []fleet.Backend{{Addr: ln.Addr().String()}},
		ProbeInterval: -1,
		DrainTimeout:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return &lifecycleDaemon{
		serve:         f.Serve,
		close:         f.Close,
		acceptRetries: func() uint64 { return f.Stats().AcceptRetries },
		forceClosed:   func() uint64 { return f.Stats().SessionsForceClosed },
		closedErr:     fleet.ErrClosed,
		fleet:         f,
		backend:       ln.Addr().String(),
	}
}

func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// timeoutErr satisfies net.Error with Timeout() true.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "accept: synthetic timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// acceptErrno is the error a TCP listener's Accept returns for errno.
func acceptErrno(errno syscall.Errno) error {
	return &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", errno)}
}

// flakyListener fails its first failures Accepts with err, then
// delegates.
type flakyListener struct {
	net.Listener
	err      error
	failures atomic.Int32
	attempts atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.attempts.Add(1)
	if l.failures.Add(-1) >= 0 {
		return nil, l.err
	}
	return l.Listener.Accept()
}

// dialSession opens a session of lifecycleWorkload at addr.
func dialSession(t *testing.T, addr string) *server.Session {
	t.Helper()
	sess, err := server.Dial(addr, lifecycleWorkload.Name, lifecycleWorkload.Build(), server.Options{OT: ot.Insecure})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return sess
}

// runOnce runs one session of lifecycleWorkload at addr and checks it
// against the plaintext oracle.
func runOnce(t *testing.T, addr string) {
	t.Helper()
	sess := dialSession(t, addr)
	defer sess.Close()
	g, _ := lifecycleWorkload.Inputs(1)
	_, e := lifecycleWorkload.Inputs(3)
	want, err := lifecycleWorkload.Build().Eval(g, e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Run(e)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("output %d mismatch", j)
		}
	}
}

// survivesTransient injects three transient Accept failures: the
// accept loop retries each with backoff instead of tearing down the
// listener, counts it, and serves the session dialed after them.
func survivesTransient(t *testing.T, d *lifecycleDaemon, injected error) {
	tcp := listenLoopback(t)
	ln := &flakyListener{Listener: tcp, err: injected}
	ln.failures.Store(3)
	done := make(chan error, 1)
	go func() { done <- d.serve(ln) }()

	runOnce(t, tcp.Addr().String())
	if n := ln.attempts.Load(); n < 4 {
		t.Fatalf("listener saw %d accepts, want >= 4 (3 failures + the session)", n)
	}
	if got := d.acceptRetries(); got != 3 {
		t.Fatalf("AcceptRetries = %d, want 3 (one per injected transient failure)", got)
	}
	select {
	case err := <-done:
		t.Fatalf("Serve returned early with %v", err)
	default:
	}
	d.close()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after Close", err)
	}
}

// forceClosesOne splices one session through the proxy, leaves it open
// and drains it with drain: the force-close counts the session once,
// not once per connection of the splice.
func forceClosesOne(t *testing.T, d *lifecycleDaemon, drain func() error) {
	ln := listenLoopback(t)
	done := make(chan error, 1)
	go func() { done <- d.serve(ln) }()
	sess := dialSession(t, ln.Addr().String())
	defer sess.Close()
	// Dial returns once the reply is relayed, a moment before the splice
	// registers the session with its backend.
	for deadline := time.Now().Add(10 * time.Second); d.fleet.Stats().ActiveSessions != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the session was never spliced")
		}
	}
	if err := drain(); err != nil {
		t.Fatal(err)
	}
	if got := d.forceClosed(); got != 1 {
		t.Fatalf("SessionsForceClosed = %d after force-closing one spliced session, want 1", got)
	}
	d.close()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after Close", err)
	}
}

// TestDaemonLifecycle holds both daemons to the shared accept loop and
// drain: every transient Accept error is retried and counted, a
// permanent one is returned, Serve after Close returns the daemon's
// typed error, and a drain's force-close counts sessions.
func TestDaemonLifecycle(t *testing.T) {
	daemons := []struct {
		name  string
		start func(*testing.T) *lifecycleDaemon
	}{
		{"haacd", startServerDaemon},
		{"haacfleet", startFleetDaemon},
	}
	type row struct {
		name      string
		fleetOnly bool
		run       func(*testing.T, *lifecycleDaemon)
	}
	var rows []row
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"timeout", timeoutErr{}},
		{"ECONNABORTED", acceptErrno(syscall.ECONNABORTED)},
		{"EMFILE", acceptErrno(syscall.EMFILE)},
		{"ENFILE", acceptErrno(syscall.ENFILE)},
	} {
		rows = append(rows, row{name: tc.name, run: func(t *testing.T, d *lifecycleDaemon) { survivesTransient(t, d, tc.err) }})
	}
	rows = append(rows,
		row{name: "permanent", run: func(t *testing.T, d *lifecycleDaemon) {
			broken := errors.New("accept: listener torn down")
			tcp := listenLoopback(t)
			ln := &flakyListener{Listener: tcp, err: broken}
			ln.failures.Store(1)
			if err := d.serve(ln); !errors.Is(err, broken) {
				t.Fatalf("Serve = %v, want the listener's error %v", err, broken)
			}
			if got := d.acceptRetries(); got != 0 {
				t.Fatalf("AcceptRetries = %d after a permanent error, want 0", got)
			}
		}},
		row{name: "serve-after-close", run: func(t *testing.T, d *lifecycleDaemon) {
			if err := d.close(); err != nil {
				t.Fatal(err)
			}
			if err := d.serve(listenLoopback(t)); err != d.closedErr {
				t.Fatalf("Serve after Close = %v, want %v", err, d.closedErr)
			}
		}},
		row{name: "close-force-closes-one", fleetOnly: true, run: func(t *testing.T, d *lifecycleDaemon) {
			forceClosesOne(t, d, d.close)
		}},
		row{name: "drain-force-closes-one", fleetOnly: true, run: func(t *testing.T, d *lifecycleDaemon) {
			forceClosesOne(t, d, func() error { return d.fleet.Drain(d.backend) })
		}},
	)
	for _, dm := range daemons {
		for _, r := range rows {
			if r.fleetOnly && dm.name != "haacfleet" {
				continue
			}
			t.Run(dm.name+"/"+r.name, func(t *testing.T) { r.run(t, dm.start(t)) })
		}
	}
}
