package daemon

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"haac/internal/fleet"
	"haac/internal/server"
	"haac/internal/workloads"
)

// brokenListener is a listener whose Accept fails for good.
type brokenListener struct{ net.Listener }

var errBroken = errors.New("accept: listener broken for good")

func (brokenListener) Accept() (net.Conn, error) { return nil, errBroken }

// trackedListener records whether it was closed.
type trackedListener struct {
	net.Listener
	closed atomic.Bool
}

func (l *trackedListener) Close() error {
	l.closed.Store(true)
	return l.Listener.Close()
}

// countingOwner counts the Close calls that reach its owner.
type countingOwner struct {
	Owner
	closes atomic.Int32
}

func (o *countingOwner) Close() error {
	o.closes.Add(1)
	return o.Owner.Close()
}

// TestCommandLifecycle holds both daemons' command lines to the same
// rows: a session or ops listener whose Accept fails for good closes
// the owner and exits 1 with the error on stderr; an ops address that
// cannot be opened exits 1 with the session listener closed and no
// banner; a stop drains the owner, prints the drain and totals lines
// and exits 0.
func TestCommandLifecycle(t *testing.T) {
	owners := []struct {
		name  string
		build func(t *testing.T) Owner
	}{
		{"haacd", func(t *testing.T) Owner {
			w, err := workloads.Find("Million-8", true)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := server.New(server.Config{Circuits: []server.CircuitSpec{{ID: w.Name, Circuit: w.Build()}}})
			if err != nil {
				t.Fatal(err)
			}
			return srv
		}},
		{"haacfleet", func(t *testing.T) Owner {
			f, err := fleet.New(fleet.Config{Backends: []fleet.Backend{{Addr: "127.0.0.1:1"}}})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}},
	}
	loopback := func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
	broken := func() (net.Listener, error) {
		ln, err := loopback()
		return brokenListener{ln}, err
	}
	rows := []struct {
		name    string
		session func() (net.Listener, error)
		ops     func() (net.Listener, error) // nil leaves -ops unset
		stop    bool
		code    int
		closes  int32 // Close calls that reach the owner
		stdout  []string
		stderr  string
	}{
		{name: "session-accept-fails", session: broken, code: 1, closes: 1, stderr: errBroken.Error()},
		{name: "ops-accept-fails", session: loopback, ops: broken, code: 1, closes: 1, stderr: errBroken.Error()},
		{name: "ops-unopenable", session: loopback, code: 1, stderr: "invalid port",
			ops: func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:99999") }},
		{name: "stop-drains", session: loopback, ops: loopback, stop: true, code: 0, closes: 1,
			stdout: []string{"ops endpoints on http://", ": draining sessions\n", ": totals\n"}},
	}
	for _, o := range owners {
		for _, r := range rows {
			t.Run(o.name+"/"+r.name, func(t *testing.T) {
				var sessionLn *trackedListener
				listen = func(_, addr string) (net.Listener, error) {
					if addr == "ops" {
						return r.ops()
					}
					ln, err := r.session()
					if err != nil {
						return nil, err
					}
					sessionLn = &trackedListener{Listener: ln}
					return sessionLn, nil
				}
				defer func() { listen = net.Listen }()

				var stdout, stderr bytes.Buffer
				cmd := New(o.name, "session", &stdout, &stderr)
				args := []string{}
				if r.ops != nil {
					args = append(args, "-ops", "ops")
				}
				if code, ok := cmd.Parse(args); !ok {
					t.Fatalf("Parse exit %d: %s", code, stderr.String())
				}
				owner := &countingOwner{Owner: o.build(t)}
				defer owner.Owner.Close()
				stop := make(chan struct{})
				if r.stop {
					close(stop)
				}

				code := cmd.Serve(owner, stop, "serving", []string{"  detail"}, func() string { return "totals" })
				if code != r.code {
					t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, r.code, stdout.String(), stderr.String())
				}
				if n := owner.closes.Load(); n != r.closes {
					t.Errorf("owner closed %d times, want %d", n, r.closes)
				}
				if r.code == 0 {
					if stderr.Len() != 0 {
						t.Errorf("stderr after a drain:\n%s", stderr.String())
					}
				} else if !strings.Contains(stderr.String(), r.stderr) {
					t.Errorf("stderr %q does not report %q", stderr.String(), r.stderr)
				}
				if sessionLn == nil {
					t.Fatal("the session listener was never opened")
				}
				if !sessionLn.closed.Load() {
					t.Error("the session listener is still open")
				}
				out := stdout.String()
				if r.name == "ops-unopenable" {
					if out != "" {
						t.Errorf("banner printed although the ops listener never opened:\n%s", out)
					}
					return
				}
				if !strings.HasPrefix(out, o.name+": serving on ") || !strings.Contains(out, "\n  detail\n") {
					t.Errorf("banner missing its head or detail line:\n%s", out)
				}
				for _, want := range r.stdout {
					if !strings.Contains(out, want) {
						t.Errorf("stdout lacks %q:\n%s", want, out)
					}
				}
			})
		}
	}
}
