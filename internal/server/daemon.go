package server

import (
	"crypto/tls"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The daemon lifecycle: the accept loop, the drain and the ops sidecar
// of every serving process in this module. A Server runs one around its
// session handler and the fleet proxy (internal/fleet) one around its
// router, so haacd and haacfleet retry the same accept errors, drain the
// same way and count force-closed sessions the same way.

// defaultDrainTimeout bounds a drain when DaemonConfig.DrainTimeout is
// zero.
const defaultDrainTimeout = 30 * time.Second

// DaemonConfig is what a Daemon needs from the process that owns it.
type DaemonConfig struct {
	// TLS, when non-nil, wraps every listener passed to Serve.
	TLS *tls.Config
	// DrainTimeout bounds how long a drain waits for live sessions
	// before it force-closes them: 0 means the 30s default, negative
	// waits indefinitely.
	DrainTimeout time.Duration
	// ErrClosed is what Serve and ServeOps return when called after the
	// drain began.
	ErrClosed error
	// Admit, when non-nil, runs on the accept goroutine for every
	// connection accepted before the drain, one at a time, so the counts
	// it reads are exact. It reports whether the connection becomes a
	// session; on false it has taken the connection over (a refusal).
	Admit func(conn net.Conn) bool
	// Handle serves one admitted session on a goroutine of its own; the
	// connection is closed and the session retired when it returns.
	Handle func(conn net.Conn)
	// Ready answers /readyz while the daemon serves: "" is 200 ok,
	// anything else the body of a 503.
	Ready func() string
	// Metrics renders the /metrics exposition.
	Metrics func() string
}

// Daemon runs the listeners and sessions of one serving process: Serve
// accepts sessions, ServeOps and OpsHandler expose the ops sidecar, and
// Close drains. Build it with NewDaemon; a Server and a fleet proxy
// each embed one, so its Serve, ServeOps and OpsHandler are theirs.
type Daemon struct {
	opts DaemonConfig

	mu        sync.Mutex
	draining  bool          // the drain began
	done      chan struct{} // closed when draining is set
	listeners map[net.Listener]struct{}
	sessions  map[net.Conn]bool // each live session's conn; true while idle
	wg        sync.WaitGroup    // one per live session

	acceptRetries atomic.Uint64
	forceClosed   atomic.Uint64
}

// NewDaemon builds a daemon that has not begun to serve.
func NewDaemon(cfg DaemonConfig) *Daemon {
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = defaultDrainTimeout
	}
	return &Daemon{
		opts:      cfg,
		done:      make(chan struct{}),
		listeners: make(map[net.Listener]struct{}),
		sessions:  make(map[net.Conn]bool),
	}
}

// Done returns a channel that is closed when the drain begins.
func (d *Daemon) Done() <-chan struct{} { return d.done }

// isDraining reports whether the drain began.
func (d *Daemon) isDraining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// AcceptRetries counts transient Accept errors the accept loop retried.
func (d *Daemon) AcceptRetries() uint64 { return d.acceptRetries.Load() }

// ForceClosed counts sessions a drain force-closed.
func (d *Daemon) ForceClosed() uint64 { return d.forceClosed.Load() }

// register adds ln to the set the drain closes, refusing (and closing
// ln) once the drain began; unregister removes and closes it. Session
// and ops listeners share them, so every listener is observed by
// exactly one drain.
func (d *Daemon) register(ln net.Listener) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		ln.Close()
		return d.opts.ErrClosed
	}
	d.listeners[ln] = struct{}{}
	return nil
}

func (d *Daemon) unregister(ln net.Listener) {
	d.mu.Lock()
	delete(d.listeners, ln)
	d.mu.Unlock()
	ln.Close()
}

// Serve accepts sessions on ln until Close; it may be called
// concurrently on several listeners. With DaemonConfig.TLS set the
// listener is wrapped so every session runs over TLS. It returns nil
// after Close, DaemonConfig.ErrClosed (ErrDraining for a Server,
// fleet.ErrClosed for the proxy) when called after Close, and the
// listener's error otherwise. Transient Accept errors (see
// isTransientAccept) are retried with capped backoff and counted in
// AcceptRetries.
func (d *Daemon) Serve(ln net.Listener) error {
	if d.opts.TLS != nil {
		ln = tls.NewListener(ln, d.opts.TLS)
	}
	if err := d.register(ln); err != nil {
		return err
	}
	defer d.unregister(ln)
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if d.isDraining() {
				return nil
			}
			if !isTransientAccept(err) {
				return err
			}
			// One flaky accept must not tear down the whole listener:
			// back off, 5ms doubling up to 1s, and keep accepting.
			d.acceptRetries.Add(1)
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		if !d.track(conn) {
			conn.Close()
			continue
		}
		if d.opts.Admit != nil && !d.opts.Admit(conn) {
			d.retire(conn)
			continue
		}
		go d.run(conn)
	}
}

// isTransientAccept reports whether an Accept error is worth retrying:
// network timeouts, temporary resource exhaustion, or a connection the
// peer aborted between SYN and accept.
func isTransientAccept(err error) bool {
	if errors.Is(err, syscall.ECONNABORTED) || errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	// net.Error.Temporary is deprecated (ill-defined for general errors)
	// but remains exactly the signal listeners raise for retryable
	// accept failures; assert the method structurally to use it.
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

// track registers conn as a live session, refusing once the drain
// began; retire unregisters it without closing it.
func (d *Daemon) track(conn net.Conn) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return false
	}
	d.sessions[conn] = false
	d.wg.Add(1)
	return true
}

func (d *Daemon) retire(conn net.Conn) {
	d.mu.Lock()
	delete(d.sessions, conn)
	d.mu.Unlock()
	d.wg.Done()
}

// run serves one admitted session and retires it.
func (d *Daemon) run(conn net.Conn) {
	defer func() {
		conn.Close()
		d.retire(conn)
	}()
	d.opts.Handle(conn)
}

// setIdle flips a session's drain state: the drain closes idle sessions
// at once. Entering idle returns false once the drain began — the
// session must exit instead of blocking on a read nobody will
// interrupt.
func (d *Daemon) setIdle(conn net.Conn, idle bool) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if idle && d.draining {
		return false
	}
	d.sessions[conn] = idle
	return true
}

// Close drains: the listeners stop accepting, idle sessions are closed,
// and the live ones get DrainTimeout to end before they are
// force-closed, so Close returns within a bound even against a peer
// stalled mid-session. Safe to call more than once.
func (d *Daemon) Close() {
	d.mu.Lock()
	if !d.draining {
		d.draining = true
		close(d.done)
		for ln := range d.listeners {
			ln.Close()
		}
		for conn, idle := range d.sessions {
			if idle {
				conn.Close()
			}
		}
	}
	d.mu.Unlock()
	ended := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(ended)
	}()
	d.Await(ended, d.live)
}

// live returns the connections of every live session.
func (d *Daemon) live() []net.Conn {
	d.mu.Lock()
	defer d.mu.Unlock()
	conns := make([]net.Conn, 0, len(d.sessions))
	for conn := range d.sessions {
		conns = append(conns, conn)
	}
	return conns
}

// Await waits until ended is closed. Once DrainTimeout has run out it
// force-closes the connection of every session survivors returns,
// counting each in ForceClosed, and waits on: closing a session's
// connection errors out whatever read or write holds it, so that wait
// is bounded by I/O teardown, not by the peer. Close awaits every
// session; a daemon that drains a subset of its sessions awaits them
// here too.
func (d *Daemon) Await(ended <-chan struct{}, survivors func() []net.Conn) {
	if dt := d.opts.DrainTimeout; dt >= 0 {
		timer := time.NewTimer(dt)
		defer timer.Stop()
		select {
		case <-ended:
			return
		case <-timer.C:
		}
		for _, conn := range survivors() {
			conn.Close()
			d.forceClosed.Add(1)
		}
	}
	<-ended
}
