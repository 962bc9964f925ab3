// Package fleet is the digest-sharded front proxy that scales the
// serving layer from one haacd process to a fleet of them. It accepts
// the existing HAAS session handshake, routes each session to a backend
// garbler by rendezvous-hashing the circuit digest — so repeat sessions
// of a circuit land on the backend whose server.PlanCache is already
// warm — and splices bytes between client and backend for the life of
// the session. The 2PC wire format is untouched: the proxy reads
// exactly two frames (the client's hello and the backend's reply),
// forwards them verbatim, and never interprets a protocol byte after
// the handshake.
//
// Robustness is the point. Backends are watched two ways: an active
// prober polls each backend's ops endpoint (/readyz, falling back to
// /healthz) so saturated, draining or dead processes stop receiving
// routes before a client pays for the refusal, and a passive
// per-backend circuit breaker ejects a backend after consecutive
// dial or handshake-relay failures, readmitting it through half-open
// trial sessions or a succeeding probe. When a session's backend dies
// mid-run the client's retry policy (server.RetryPolicy) redials the
// proxy, and the breaker has by then steered the route to the next
// live backend in rendezvous order — so client-side redial/replay
// heals whole-backend loss exactly like a dropped connection. Rolling
// restarts use Drain/Undrain: Drain stops new routes to one backend
// and waits out its active sessions (bounded by DrainTimeout), the
// operator restarts it, Undrain readmits it fresh.
package fleet

import (
	"crypto/tls"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"haac/internal/server"
)

// Typed fleet errors.
var (
	// ErrNoBackend: every backend is drained, ejected or failing; the
	// session was refused busy.
	ErrNoBackend = errors.New("fleet: no live backend")
	// ErrUnknownBackend: Drain/Undrain named an address the fleet does
	// not route to.
	ErrUnknownBackend = errors.New("fleet: unknown backend")
	// ErrClosed: the fleet proxy is shut down.
	ErrClosed = errors.New("fleet: closed")
)

// Backend names one backend garbler process.
type Backend struct {
	// Addr is the backend's 2PC session address.
	Addr string
	// Ops is the backend's HTTP ops address probed for /readyz and
	// /healthz; empty disables active probing for this backend (the
	// passive circuit breaker still applies).
	Ops string
}

// Config configures a Fleet.
type Config struct {
	// Backends is the routing set. Rendezvous hashing makes placement a
	// pure function of (digest, Addr), so the set can differ across
	// proxy replicas only at the cost of cache locality, not
	// correctness.
	Backends []Backend
	// ProbeInterval is the active health-probe period (default 500ms;
	// negative disables probing — routing then relies on the passive
	// breaker alone).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe HTTP request (default 2s).
	ProbeTimeout time.Duration
	// FailThreshold is the number of consecutive dial/handshake-relay
	// failures that ejects a backend (default 3).
	FailThreshold int
	// ReopenAfter is how long an ejected backend waits before a
	// half-open trial session may probe it back in (default 1s).
	ReopenAfter time.Duration
	// DialTimeout bounds each backend dial (default 5s).
	DialTimeout time.Duration
	// HandshakeTimeout bounds the client hello read and the
	// hello-forward/reply-read exchange with the backend (default 10s,
	// negative disables).
	HandshakeTimeout time.Duration
	// IdleTimeout, when > 0, arms a per-direction deadline on every
	// spliced session: a direction that moves no bytes for this long
	// tears the session down, so a half-dead peer cannot pin a splice
	// goroutine forever.
	IdleTimeout time.Duration
	// DrainTimeout bounds Drain and Close waiting for active sessions
	// (0 means the 30s default; negative waits indefinitely).
	DrainTimeout time.Duration
	// TLS, when non-nil, wraps every listener passed to Serve so
	// clients reach the fleet over TLS.
	TLS *tls.Config
	// BackendTLS, when non-nil, wraps every backend dial so the
	// proxy-to-backend hop runs over TLS (backends run server.Config.TLS).
	BackendTLS *tls.Config
	// Dialer overrides how backend connections are opened — tests route
	// it through a fault-injecting transport. nil means net.Dial with
	// DialTimeout. BackendTLS composes on top of the returned conn.
	Dialer func(addr string) (net.Conn, error)
}

const (
	defaultProbeInterval = 500 * time.Millisecond
	defaultProbeTimeout  = 2 * time.Second
	defaultFailThreshold = 3
	defaultReopenAfter   = time.Second
	defaultDialTimeout   = 5 * time.Second
	defaultHandshake     = 10 * time.Second
)

// BackendStats is the point-in-time state of one backend.
type BackendStats struct {
	Addr string
	// Routable reports whether the next session could be routed here.
	Routable bool
	// Draining is the administrative Drain flag.
	Draining bool
	// Ejected is the passive circuit breaker's open state.
	Ejected bool
	// ProbeOK is the last active-probe verdict (true when probing is
	// disabled for the backend).
	ProbeOK bool
	// Active is the number of sessions currently spliced to it.
	Active int
	// SessionsRouted counts sessions relayed to this backend.
	SessionsRouted uint64
	// Failures counts dial/handshake-relay failures charged to it.
	Failures uint64
	// Refusals counts busy/draining handshake refusals it returned.
	Refusals uint64
	// ProbeFailures counts failed active probes.
	ProbeFailures uint64
}

// Stats is a snapshot of the fleet's counters.
type Stats struct {
	Backends []BackendStats
	// LiveBackends counts currently routable backends.
	LiveBackends int
	// ActiveSessions counts spliced sessions across all backends.
	ActiveSessions int
	// SessionsRouted counts sessions relayed to some backend.
	SessionsRouted uint64
	// SessionsPooled counts routed sessions whose backend granted the
	// precomputed-OT tier; the pool's grant rides in the relayed reply,
	// and the connect-time fill behind it, in-run fills and
	// derandomization bytes traverse the splice opaquely, so this
	// handshake bit is all the proxy ever learns about pooling.
	SessionsPooled uint64
	// SessionsRefused counts sessions refused because no backend was
	// routable.
	SessionsRefused uint64
	// Failovers counts sessions routed past their rendezvous-first
	// backend because it was drained, ejected, failing or refused.
	Failovers uint64
	// DialFailures counts failed backend dials.
	DialFailures uint64
	// BackendRefusals counts busy/draining refusals relayed from
	// backends to clients.
	BackendRefusals uint64
	// Ejections / Readmissions count circuit-breaker transitions.
	Ejections, Readmissions uint64
	// BytesClientToBackend / BytesBackendToClient are splice totals.
	BytesClientToBackend, BytesBackendToClient uint64
	// SessionsForceClosed counts sessions force-closed by Drain or Close
	// after DrainTimeout, one per session.
	SessionsForceClosed uint64
	// AcceptRetries counts transient Accept errors (timeouts, aborted
	// connections, fd pressure) the accept loop retried with backoff
	// instead of tearing down the listener.
	AcceptRetries uint64
	// SessionsPanicked counts sessions whose routing or splice goroutine
	// panicked and was contained — the session died, the proxy did not.
	SessionsPanicked uint64
}

// Fleet is the front proxy. Create with New, serve one or more
// listeners with Serve, and stop with Close.
type Fleet struct {
	cfg      Config
	backends []*backend
	byAddr   map[string]*backend

	// The daemon accepts and drains the client sessions and serves the
	// ops sidecar: Serve, ServeOps and OpsHandler are its, shared with
	// the backend server.
	*daemon

	probeWG sync.WaitGroup

	routed       atomic.Uint64
	pooledRouted atomic.Uint64
	refused      atomic.Uint64
	failovers    atomic.Uint64
	dialFailures atomic.Uint64
	relayRefused atomic.Uint64
	ejections    atomic.Uint64
	readmissions atomic.Uint64
	bytesC2B     atomic.Uint64
	bytesB2C     atomic.Uint64
	panicked     atomic.Uint64
	active       atomic.Int64
}

// daemon names the server.Daemon a Fleet embeds, keeping the embedded
// field unexported.
type daemon = server.Daemon

// testHookPanic, when non-nil, runs at the start of every accepted
// session — the fault-injection point for the panic-containment tests.
var testHookPanic func()

// New validates the configuration and builds the proxy; probing starts
// immediately for backends with an Ops address.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("fleet: no backends configured")
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = defaultProbeTimeout
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = defaultFailThreshold
	}
	if cfg.ReopenAfter <= 0 {
		cfg.ReopenAfter = defaultReopenAfter
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = defaultDialTimeout
	}
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = defaultHandshake
	}
	f := &Fleet{
		cfg:    cfg,
		byAddr: make(map[string]*backend, len(cfg.Backends)),
	}
	f.daemon = server.NewDaemon(server.DaemonConfig{
		TLS:          cfg.TLS,
		DrainTimeout: cfg.DrainTimeout,
		ErrClosed:    ErrClosed,
		Handle:       f.handle,
		Ready:        f.ready,
		Metrics:      f.MetricsText,
	})
	for _, spec := range cfg.Backends {
		if spec.Addr == "" {
			return nil, errors.New("fleet: backend with empty address")
		}
		if _, dup := f.byAddr[spec.Addr]; dup {
			return nil, fmt.Errorf("fleet: duplicate backend %q", spec.Addr)
		}
		b := &backend{spec: spec, probeOK: true}
		f.backends = append(f.backends, b)
		f.byAddr[spec.Addr] = b
	}
	if cfg.ProbeInterval > 0 {
		for _, b := range f.backends {
			if b.spec.Ops == "" {
				continue
			}
			f.probeWG.Add(1)
			go f.probeLoop(b)
		}
	}
	return f, nil
}

// score is the rendezvous weight of one (digest, backend) pair.
func score(digest [32]byte, addr string) uint64 {
	h := fnv.New64a()
	h.Write(digest[:])
	h.Write([]byte(addr))
	return h.Sum64()
}

// rankAddrs returns addrs in rendezvous order for digest — highest
// score first, ties broken by address so the order is total. It is the
// pure routing function: same digest, same backend set, same order.
func rankAddrs(digest [32]byte, addrs []string) []string {
	ranked := append([]string(nil), addrs...)
	sort.SliceStable(ranked, func(i, j int) bool {
		si, sj := score(digest, ranked[i]), score(digest, ranked[j])
		if si != sj {
			return si > sj
		}
		return ranked[i] < ranked[j]
	})
	return ranked
}

// ranked returns the fleet's backends in rendezvous order for digest.
func (f *Fleet) ranked(digest [32]byte) []*backend {
	addrs := make([]string, len(f.backends))
	for i, b := range f.backends {
		addrs[i] = b.spec.Addr
	}
	order := rankAddrs(digest, addrs)
	ranked := make([]*backend, len(order))
	for i, addr := range order {
		ranked[i] = f.byAddr[addr]
	}
	return ranked
}

// handle routes one accepted session: read the client hello, walk the
// rendezvous order until a live backend accepts, relay the verdict, and
// splice. A backend that cannot be dialed or whose reply never arrives
// is charged a breaker failure and the next candidate is tried with the
// same hello bytes; a backend that answers with a busy/draining refusal
// has refused a complete handshake, so the refusal is relayed verbatim
// and the client's retry policy redials — by then the breaker routes
// the next attempt past it.
func (f *Fleet) handle(conn net.Conn) {
	// Contain a panic to the session that raised it: one poisoned route
	// or splice must not take down the whole proxy; the daemon still
	// retires the session.
	defer func() {
		if r := recover(); r != nil {
			f.panicked.Add(1)
			conn.Close()
		}
	}()
	if testHookPanic != nil {
		testHookPanic()
	}

	hs := f.cfg.HandshakeTimeout
	if hs > 0 {
		conn.SetReadDeadline(time.Now().Add(hs))
	}
	hf, err := server.ReadHelloFrame(conn)
	if err != nil {
		if errors.Is(err, server.ErrBadRequest) || errors.Is(err, server.ErrBadVersion) {
			f.reply(conn, func() error { return server.WriteRefusal(conn, err, "") })
		}
		return
	}

	for i, b := range f.ranked(hf.Digest) {
		trial, ok := b.admit(time.Now())
		if !ok {
			continue
		}
		bconn, err := f.dialBackend(b)
		if err != nil {
			f.dialFailures.Add(1)
			b.reportFailure(f, trial)
			continue
		}
		if hs > 0 {
			bconn.SetDeadline(time.Now().Add(hs))
		}
		var rf server.ReplyFrame
		if _, err = bconn.Write(hf.Raw); err == nil {
			rf, err = server.ReadReplyFrame(bconn)
		}
		if err != nil {
			// The backend accepted a connection but never answered a
			// complete handshake: a dying or wedged process. Charge the
			// breaker and try the next candidate with the same hello.
			bconn.Close()
			b.reportFailure(f, trial)
			continue
		}
		if i > 0 {
			f.failovers.Add(1)
		}
		if !rf.OK() {
			// A complete, typed refusal (busy, draining, unknown circuit,
			// digest mismatch): the backend is alive and spoke for
			// itself, so relay its exact bytes. Busy/draining mark the
			// backend unroutable-leaning via the refusal counter and the
			// active probe; the client's retry redials onto the next
			// candidate.
			bconn.Close()
			b.reportRefusal(f, rf.Err, trial)
			f.relayRefused.Add(1)
			f.reply(conn, func() error { _, werr := conn.Write(rf.Raw); return werr })
			return
		}
		b.reportSuccess(f)
		f.routed.Add(1)
		if rf.Pooled {
			f.pooledRouted.Add(1)
		}
		b.routed.Add(1)
		if werr := f.reply(conn, func() error { _, werr := conn.Write(rf.Raw); return werr }); werr != nil {
			bconn.Close()
			b.release()
			return
		}
		conn.SetDeadline(time.Time{})
		bconn.SetDeadline(time.Time{})
		f.splice(b, conn, bconn)
		return
	}
	f.refused.Add(1)
	f.reply(conn, func() error { return server.WriteRefusal(conn, server.ErrBusy, "fleet: no live backend") })
}

// reply arms a write deadline around a handshake-phase write to the
// client, so a slowloris client cannot pin the routing goroutine.
func (f *Fleet) reply(conn net.Conn, write func() error) error {
	if hs := f.cfg.HandshakeTimeout; hs > 0 {
		conn.SetWriteDeadline(time.Now().Add(hs))
	}
	return write()
}

// dialBackend opens one backend connection through the configured
// dialer, wrapped in TLS when configured.
func (f *Fleet) dialBackend(b *backend) (net.Conn, error) {
	var conn net.Conn
	var err error
	if f.cfg.Dialer != nil {
		conn, err = f.cfg.Dialer(b.spec.Addr)
	} else {
		conn, err = net.DialTimeout("tcp", b.spec.Addr, f.cfg.DialTimeout)
	}
	if err != nil {
		return nil, err
	}
	if f.cfg.BackendTLS != nil {
		conn = tls.Client(conn, f.cfg.BackendTLS)
	}
	return conn, nil
}

// splice relays bytes in both directions until either side ends, then
// tears both conns down. The backend's admission slot (b.admit) is held
// for the whole splice so Drain can wait on it; closing the client conn
// — as a drain's force-close does — ends both directions.
func (f *Fleet) splice(b *backend, client, bconn net.Conn) {
	b.addConn(client)
	f.active.Add(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// This half runs on its own goroutine, outside handle's recover:
		// contain its panics here or they kill the process.
		defer func() {
			if r := recover(); r != nil {
				f.panicked.Add(1)
				bconn.Close()
				client.Close()
			}
		}()
		f.copyHalf(bconn, client, &f.bytesC2B)
		// Client side ended (bye, drop, or force-close): unblock the
		// backend read.
		bconn.Close()
		client.Close()
	}()
	f.copyHalf(client, bconn, &f.bytesB2C)
	client.Close()
	bconn.Close()
	<-done
	f.active.Add(-1)
	b.removeConn(client)
	b.release()
}

// copyHalf moves bytes src -> dst until either side errors, arming the
// per-direction idle deadline when configured.
func (f *Fleet) copyHalf(dst, src net.Conn, counter *atomic.Uint64) {
	buf := make([]byte, 32<<10)
	idle := f.cfg.IdleTimeout
	for {
		if idle > 0 {
			src.SetReadDeadline(time.Now().Add(idle))
		}
		n, err := src.Read(buf)
		if n > 0 {
			counter.Add(uint64(n))
			if idle > 0 {
				dst.SetWriteDeadline(time.Now().Add(idle))
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// Drain stops routing new sessions to the named backend and waits for
// its active sessions to finish, force-closing survivors after
// DrainTimeout — the first half of a rolling restart. The backend stays
// out of the routing set until Undrain.
func (f *Fleet) Drain(addr string) error {
	b := f.byAddr[addr]
	if b == nil {
		return fmt.Errorf("%w: %q", ErrUnknownBackend, addr)
	}
	f.Await(b.drain(), b.snapshotConns)
	return nil
}

// Undrain readmits a (typically restarted) backend with a clean slate:
// the drain flag, breaker state and probe verdict all reset, so the
// next session in its rendezvous set routes to it immediately.
func (f *Fleet) Undrain(addr string) error {
	b := f.byAddr[addr]
	if b == nil {
		return fmt.Errorf("%w: %q", ErrUnknownBackend, addr)
	}
	b.mu.Lock()
	b.drained = false
	b.ejected = false
	b.halfOpen = false
	b.fails = 0
	b.probeOK = true
	b.mu.Unlock()
	return nil
}

// Close shuts the proxy down: listeners stop accepting, probing stops,
// and active splices get DrainTimeout to finish before being
// force-closed. Safe to call more than once.
func (f *Fleet) Close() error {
	f.daemon.Close()
	f.probeWG.Wait()
	return nil
}

// Stats returns a snapshot of the fleet's counters.
func (f *Fleet) Stats() Stats {
	st := Stats{
		ActiveSessions:       int(f.active.Load()),
		SessionsRouted:       f.routed.Load(),
		SessionsPooled:       f.pooledRouted.Load(),
		SessionsRefused:      f.refused.Load(),
		Failovers:            f.failovers.Load(),
		DialFailures:         f.dialFailures.Load(),
		BackendRefusals:      f.relayRefused.Load(),
		Ejections:            f.ejections.Load(),
		Readmissions:         f.readmissions.Load(),
		BytesClientToBackend: f.bytesC2B.Load(),
		BytesBackendToClient: f.bytesB2C.Load(),
		SessionsForceClosed:  f.ForceClosed(),
		AcceptRetries:        f.AcceptRetries(),
		SessionsPanicked:     f.panicked.Load(),
	}
	now := time.Now()
	for _, b := range f.backends {
		bs := b.stats(now)
		if bs.Routable {
			st.LiveBackends++
		}
		st.Backends = append(st.Backends, bs)
	}
	return st
}
