package server

import (
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
	"haac/internal/ot"
	"haac/internal/proto"
)

// CircuitSpec registers one servable circuit.
type CircuitSpec struct {
	// ID names the circuit on the wire (1..maxIDLen bytes).
	ID string
	// Circuit is the servable circuit; its digest is computed at New and
	// checked against every session's handshake.
	Circuit *circuit.Circuit
	// Inputs supplies the garbler's input bits for each run; nil means
	// all-false. It is called once per run from the session's goroutine —
	// return a reusable slice to keep runs allocation-free.
	Inputs func() []bool
}

// Config configures a Server.
type Config struct {
	// Circuits is the set of servable circuits.
	Circuits []CircuitSpec
	// PlanCacheSize bounds the shared plan cache; 0 means one entry per
	// registered circuit (nothing ever evicts).
	PlanCacheSize int
	// Workers is the plan-engine width used by each session's garbler
	// runner (0 or 1 = sequential).
	Workers int
	// Hasher is the garbling hash (default: the re-keyed construction).
	Hasher gc.Hasher
	// Seed, when nonzero, derives deterministic per-runner label streams
	// (tests); zero draws random seeds.
	Seed uint64
	// HandshakeTimeout bounds how long an accepted connection may take
	// to complete its hello (default 10s, negative disables). The same
	// bound arms a write deadline around handshake replies, so a
	// slowloris client that never drains its receive window cannot pin a
	// handshake goroutine.
	HandshakeTimeout time.Duration
	// RunTimeout bounds each garbled run: the session connection carries
	// a read+write deadline for the duration of a run, so a client that
	// goes silent mid-OT or mid-table-stream errors the session out
	// instead of pinning it forever (0 disables).
	RunTimeout time.Duration
	// DrainTimeout bounds Close: after listeners stop and idle sessions
	// disconnect, in-flight sessions get this grace period to finish;
	// survivors are then force-closed (counted in
	// Stats.SessionsForceClosed) so Close provably returns. 0 means the
	// 30s default; negative waits indefinitely (the pre-timeout
	// behavior).
	DrainTimeout time.Duration
	// MaxSessions caps concurrently admitted sessions; excess
	// connections are refused at handshake with a typed ErrBusy and
	// counted in Stats.SessionsRefused (0 = unlimited).
	MaxSessions int
	// AllowInsecureOT permits sessions requesting ot.Insecure, which
	// reveals the evaluator's choice bits on the wire. Off by default:
	// a remote peer must not be able to downgrade the OT; enable it only
	// for benchmarks and tests.
	AllowInsecureOT bool
	// DisableIntegrity declines the checksummed-frame wire tier even
	// when a client requests it in its hello flags; sessions then run on
	// the legacy unframed wire. Integrity-requesting clients fall back
	// transparently — this is also how tests exercise the legacy-peer
	// negotiation path.
	DisableIntegrity bool
	// MaxCircuitBytes, when > 0, refuses sessions (typed ErrOverBudget,
	// counted in Stats.SessionsOverBudget) whose circuit would hold more
	// than this many bytes of labels, tables and plan state resident —
	// memory-accounted admission, decided before any plan is built, so
	// one oversized circuit cannot OOM a backend.
	MaxCircuitBytes int64
	// MaxRunBytes, when > 0, bounds each run's transport bytes: sessions
	// whose minimum per-run stream already exceeds it are refused at
	// handshake, and a run that crosses it mid-stream errors out (typed
	// ErrOverBudget, counted in Stats.RunsOverBudget).
	MaxRunBytes int64
	// DisablePooledOT declines the precomputed-OT session tier even when
	// a client requests ot.Pooled in its hello; sessions then run every
	// OT on demand. Pooled-requesting clients fall back transparently —
	// the server accepts with plain statusOK and the client never sends
	// a refill.
	DisablePooledOT bool
	// MaxPoolSize caps the per-session OT pool: an opRefill that would
	// grow the pool past this many correlations is clamped to the
	// remaining headroom (or refused outright when there is none). Each
	// pooled correlation holds two 16-byte labels server-side, so the
	// cap bounds per-session memory at roughly 32*MaxPoolSize bytes.
	// 0 means the 65536 default.
	MaxPoolSize int
	// TLS, when non-nil, wraps every listener passed to Serve so the
	// session wire (handshake and the 2PC byte stream) runs over TLS.
	// The ops sidecar is unaffected — it is plain HTTP meant to be
	// firewalled to the control plane. nil keeps the plaintext
	// transport, which remains the default for tests and loopback use.
	TLS *tls.Config
}

// defaultDrainTimeout bounds Close when Config.DrainTimeout is zero.
const defaultDrainTimeout = 30 * time.Second

// defaultMaxPoolSize caps per-session OT pools when Config.MaxPoolSize
// is zero: 65536 correlations ≈ 2 MiB of sender-side label state.
const defaultMaxPoolSize = 1 << 16

// Stats is a point-in-time snapshot of a server's counters.
type Stats struct {
	// ActiveSessions is the number of currently open sessions.
	ActiveSessions int
	// SessionsTotal counts sessions ever accepted.
	SessionsTotal uint64
	// RunsServed counts completed garbled executions.
	RunsServed uint64
	// BytesOut / BytesIn are transport totals across all sessions.
	BytesOut, BytesIn uint64
	// Cache* are the shared plan cache counters.
	CacheHits, CacheMisses, CacheEvictions uint64
	// SessionsRefused counts connections refused at handshake because
	// the server was at Config.MaxSessions.
	SessionsRefused uint64
	// SessionsForceClosed counts in-flight sessions the drain
	// force-closed after Config.DrainTimeout expired.
	SessionsForceClosed uint64
	// RunsFailed counts runs that started but errored (dead peers, run
	// deadlines, protocol failures).
	RunsFailed uint64
	// AcceptRetries counts transient Accept errors (timeouts, aborted
	// connections, fd pressure) the accept loop retried with backoff
	// instead of tearing down the listener.
	AcceptRetries uint64
	// RunNanos accumulates the wall-clock duration of completed runs;
	// RunNanos/RunsServed is the mean serve latency, and the pair
	// exports as a Prometheus summary (_sum/_count).
	RunNanos uint64
	// RunsResumed counts broken runs completed by a mid-run resume
	// (integrity tier) instead of a full replay.
	RunsResumed uint64
	// IntegrityFailures counts checksummed frames this server rejected
	// on its inbound stream.
	IntegrityFailures uint64
	// SessionsPanicked counts sessions whose handler panicked; the panic
	// was contained to the session and the server kept serving.
	SessionsPanicked uint64
	// SessionsOverBudget counts sessions refused at handshake by the
	// MaxCircuitBytes/MaxRunBytes budgets; RunsOverBudget counts runs
	// that crossed MaxRunBytes mid-stream.
	SessionsOverBudget, RunsOverBudget uint64
	// PoolHits counts pooled-tier runs whose evaluator labels came out
	// of the session's precomputed OT pool — no base OT, one XOR round
	// online. PoolMisses counts pooled-tier runs that fell back to an
	// on-demand OT (pool empty or below the run's demand); PoolRefills
	// counts completed opRefill fills.
	PoolHits, PoolMisses, PoolRefills uint64
	// TableSendNanos is the time the runners' sender goroutines spent
	// inside the transport's Write pushing tables; TableDrainWaitNanos
	// is the time runs waited, garbling done, for the last of their
	// tables to leave. Send time the drain wait does not cover was
	// overlapped with garbling.
	TableSendNanos, TableDrainWaitNanos uint64
}

// registered is a servable circuit plus its per-circuit runner pool.
// The pool is an explicit free-list rather than a sync.Pool: runners
// own worker-pool goroutines when Config.Workers > 1, so they must be
// Closed deterministically at shutdown, never silently dropped by GC.
type registered struct {
	spec   CircuitSpec
	digest [32]byte
	zero   []bool // all-false garbler bits when spec.Inputs == nil

	// Static budget inputs, computed once at New: a conservative
	// resident-memory estimate (labels + tables + plan slots) and the
	// minimum garbler→evaluator stream bytes of one run (header, fixed
	// labels, tables, decode bits; OT excluded). and is the table count,
	// the bound on resume offsets.
	memBytes int64
	runBytes int64
	and      int

	mu   sync.Mutex
	free []*proto.GarblerSession // reused across sessions
}

// getRunner pops a pooled runner, if any.
func (r *registered) getRunner() *proto.GarblerSession {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		gs := r.free[n-1]
		r.free = r.free[:n-1]
		return gs
	}
	return nil
}

// putRunner returns a runner to the pool.
func (r *registered) putRunner(gs *proto.GarblerSession) {
	r.mu.Lock()
	r.free = append(r.free, gs)
	r.mu.Unlock()
}

// closeRunners stops every pooled runner's sender goroutine and worker
// pool, returning once they have exited.
func (r *registered) closeRunners() {
	r.mu.Lock()
	free := r.free
	r.free = nil
	r.mu.Unlock()
	for _, gs := range free {
		gs.Close()
	}
}

// session tracks one accepted connection's drain state.
type session struct {
	conn net.Conn
	idle bool // blocked waiting for the client's next op frame
}

// Server is a concurrent 2PC garbler service. Create with New, serve
// one or more listeners with Serve, and stop with Close: shutdown is
// graceful — listeners stop accepting, idle sessions are disconnected,
// and in-flight runs complete before Close returns.
type Server struct {
	cfg   Config
	reg   map[string]*registered
	cache *PlanCache

	net proto.Stats // byte counters shared by every session transport
	// tables collects every garbler runner's table-stream timing. Runners
	// take it as their Options.Stats, so its byte counters repeat, for
	// the run streams, what net already counts beneath them; only the
	// timing is read.
	tables proto.Stats

	mu        sync.Mutex
	draining  bool
	listeners map[net.Listener]struct{}
	sessions  map[*session]struct{}
	wg        sync.WaitGroup // one per live session

	active        atomic.Int64
	sessionsTotal atomic.Uint64
	runs          atomic.Uint64
	runsFailed    atomic.Uint64
	runNanos      atomic.Uint64
	refused       atomic.Uint64
	forceClosed   atomic.Uint64
	acceptRetries atomic.Uint64
	seq           atomic.Uint64 // per-runner deterministic seed sequence

	runsResumed       atomic.Uint64
	integrityFailures atomic.Uint64
	sessionsPanicked  atomic.Uint64
	sessionsOverBdgt  atomic.Uint64
	runsOverBudget    atomic.Uint64
	poolHits          atomic.Uint64
	poolMisses        atomic.Uint64
	poolRefills       atomic.Uint64

	resume resumeStore // broken-run checkpoints, keyed by opaque token
}

// New validates the configuration and builds a server. Plans are not
// compiled here: the first session of each circuit populates the cache.
func New(cfg Config) (*Server, error) {
	if len(cfg.Circuits) == 0 {
		return nil, errors.New("server: no circuits registered")
	}
	if cfg.PlanCacheSize <= 0 {
		cfg.PlanCacheSize = len(cfg.Circuits)
	}
	s := &Server{
		cfg:       cfg,
		reg:       make(map[string]*registered, len(cfg.Circuits)),
		cache:     NewPlanCache(cfg.PlanCacheSize),
		listeners: make(map[net.Listener]struct{}),
		sessions:  make(map[*session]struct{}),
	}
	for _, spec := range cfg.Circuits {
		if spec.ID == "" || len(spec.ID) > maxIDLen {
			return nil, fmt.Errorf("server: circuit id must be 1..%d bytes, got %q", maxIDLen, spec.ID)
		}
		if _, dup := s.reg[spec.ID]; dup {
			return nil, fmt.Errorf("server: duplicate circuit id %q", spec.ID)
		}
		if spec.Circuit == nil {
			return nil, fmt.Errorf("server: circuit %q is nil", spec.ID)
		}
		if err := spec.Circuit.Validate(); err != nil {
			return nil, fmt.Errorf("server: circuit %q: %w", spec.ID, err)
		}
		c := spec.Circuit
		and, _, _ := c.CountOps()
		nFixed := c.GarblerInputs
		if c.HasConst {
			nFixed += 2
		}
		s.reg[spec.ID] = &registered{
			spec:   spec,
			digest: circuit.Digest(c),
			zero:   make([]bool, c.GarblerInputs),
			memBytes: int64(c.NumWires)*label.Size +
				int64(and)*gc.MaterialSize +
				int64(c.NumInputs()+len(c.Outputs))*label.Size,
			runBytes: protoRunHeaderLen + int64(nFixed)*label.Size +
				int64(and)*gc.MaterialSize + int64(len(c.Outputs)),
			and: and,
		}
	}
	return s, nil
}

// protoRunHeaderLen is the wire size of internal/proto's run header,
// the fixed prefix of every run's stream (pinned against the real codec
// in tests).
const protoRunHeaderLen = 43

// overBudgetReason compares a registered circuit against the configured
// budgets; a non-empty string is the refusal detail.
func (s *Server) overBudgetReason(reg *registered) string {
	if m := s.cfg.MaxCircuitBytes; m > 0 && reg.memBytes > m {
		return fmt.Sprintf("circuit holds ~%d resident bytes, budget %d", reg.memBytes, m)
	}
	if m := s.cfg.MaxRunBytes; m > 0 && reg.runBytes > m {
		return fmt.Sprintf("a run streams at least %d bytes, budget %d", reg.runBytes, m)
	}
	return ""
}

// Digest returns the digest of the registered circuit, or false if the
// id is unknown. Clients embed it in out-of-band configuration when
// they cannot rebuild the circuit locally.
func (s *Server) Digest(id string) ([32]byte, bool) {
	r, ok := s.reg[id]
	if !ok {
		return [32]byte{}, false
	}
	return r.digest, true
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	cc := s.cache.Counters()
	return Stats{
		ActiveSessions: int(s.active.Load()),
		SessionsTotal:  s.sessionsTotal.Load(),
		RunsServed:     s.runs.Load(),
		BytesOut:       uint64(s.net.BytesSent.Load()),
		BytesIn:        uint64(s.net.BytesReceived.Load()),
		CacheHits:      cc.Hits,
		CacheMisses:    cc.Misses,
		CacheEvictions: cc.Evictions,

		SessionsRefused:     s.refused.Load(),
		SessionsForceClosed: s.forceClosed.Load(),
		RunsFailed:          s.runsFailed.Load(),
		RunNanos:            s.runNanos.Load(),
		AcceptRetries:       s.acceptRetries.Load(),

		RunsResumed:        s.runsResumed.Load(),
		IntegrityFailures:  s.integrityFailures.Load(),
		SessionsPanicked:   s.sessionsPanicked.Load(),
		SessionsOverBudget: s.sessionsOverBdgt.Load(),
		RunsOverBudget:     s.runsOverBudget.Load(),
		PoolHits:           s.poolHits.Load(),
		PoolMisses:         s.poolMisses.Load(),
		PoolRefills:        s.poolRefills.Load(),

		TableSendNanos:      uint64(s.tables.TableSendNanos.Load()),
		TableDrainWaitNanos: uint64(s.tables.TableDrainWaitNanos.Load()),
	}
}

// Cache returns the server's shared plan cache.
func (s *Server) Cache() *PlanCache { return s.cache }

// registerListener adds ln to the set Close tears down, refusing (and
// closing ln) when the server is already draining. unregisterListener
// removes and closes it; both Serve and ServeOps share this lifecycle
// so every listener — session or ops — is observed by exactly one
// drain path.
func (s *Server) registerListener(ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		ln.Close()
		return ErrDraining
	}
	s.listeners[ln] = struct{}{}
	return nil
}

func (s *Server) unregisterListener(ln net.Listener) {
	s.mu.Lock()
	delete(s.listeners, ln)
	s.mu.Unlock()
	ln.Close()
}

// Serve accepts sessions on ln until the server closes; it may be
// called concurrently on several listeners. When Config.TLS is set the
// listener is wrapped so every session runs over TLS. It returns nil
// after Close and the listener's error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	if s.cfg.TLS != nil {
		ln = tls.NewListener(ln, s.cfg.TLS)
	}
	if err := s.registerListener(ln); err != nil {
		return err
	}
	defer s.unregisterListener(ln)
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			if isTransientAccept(err) {
				// One flaky accept (timeout, aborted connection, fd
				// pressure) must not tear down the whole listener: back
				// off with a cap and keep accepting.
				s.acceptRetries.Add(1)
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		if s.cfg.MaxSessions > 0 && s.active.Load() >= int64(s.cfg.MaxSessions) {
			// Admission control: decide in the accept loop, where the
			// session count is observed serially, so exactly the excess
			// connections are shed.
			s.mu.Unlock()
			s.refused.Add(1)
			go s.refuse(conn)
			continue
		}
		st := &session{conn: conn}
		s.sessions[st] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.active.Add(1)
		s.sessionsTotal.Add(1)
		go s.handle(st)
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

// refuse completes the handshake of an over-limit connection with
// statusBusy. The hello is read first — on synchronous transports the
// client blocks in its hello write until the server consumes it, so
// replying before reading would deadlock both ends.
func (s *Server) refuse(conn net.Conn) {
	defer conn.Close()
	hsTimeout := s.cfg.HandshakeTimeout
	if hsTimeout == 0 {
		hsTimeout = 10 * time.Second
	}
	if hsTimeout > 0 {
		conn.SetDeadline(time.Now().Add(hsTimeout))
	}
	if _, _, err := readHello(conn); err != nil {
		return
	}
	writeReply(conn, statusBusy, 0, statusMsg(statusBusy, ""))
}

// Close drains the server: listeners stop accepting, idle sessions are
// disconnected, and in-flight runs get Config.DrainTimeout to finish
// before their connections are force-closed — so Close returns within a
// bound even against a client stalled mid-run. Safe to call more than
// once.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for ln := range s.listeners {
			ln.Close()
		}
		for st := range s.sessions {
			if st.idle {
				st.conn.Close()
			}
		}
	}
	s.mu.Unlock()
	s.awaitSessions()
	// Every session has returned its runner; release their worker pools.
	for _, reg := range s.reg {
		reg.closeRunners()
	}
	return nil
}

// awaitSessions waits for every session goroutine, force-closing
// survivors once the drain grace period runs out. Closing a session's
// connection errors out whatever read or write it is blocked on, so the
// second wait is bounded by I/O teardown, not by the peer.
func (s *Server) awaitSessions() {
	dt := s.cfg.DrainTimeout
	if dt == 0 {
		dt = defaultDrainTimeout
	}
	if dt < 0 {
		s.wg.Wait()
		return
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return
	case <-time.After(dt):
	}
	s.mu.Lock()
	for st := range s.sessions {
		st.conn.Close()
		s.forceClosed.Add(1)
	}
	s.mu.Unlock()
	<-done
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// setIdle flips the session's drain state. Entering idle returns false
// when the server is draining: the session must exit instead of
// blocking on a read nobody will interrupt.
func (s *Server) setIdle(st *session, idle bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if idle && s.draining {
		return false
	}
	st.idle = idle
	return true
}

// handle runs one session: handshake, plan resolution, then the
// run/ack loop until the client says goodbye, the connection dies, or
// the server drains.
func (s *Server) handle(st *session) {
	conn := st.conn
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.sessions, st)
		s.mu.Unlock()
		s.active.Add(-1)
		s.wg.Done()
	}()
	// Blast-radius containment: a panic anywhere in this session — a
	// poisoned Inputs callback, a bug tripped by one circuit — is
	// contained to the session. The recover defer runs before the
	// cleanup defer (LIFO), so the session still unregisters and the
	// server keeps serving everyone else.
	replied := false
	defer func() {
		if r := recover(); r != nil {
			s.sessionsPanicked.Add(1)
			if !replied {
				writeReply(conn, statusInternal, 0, statusMsg(statusInternal, ""))
			}
		}
	}()

	hsTimeout := s.cfg.HandshakeTimeout
	if hsTimeout == 0 {
		hsTimeout = 10 * time.Second
	}
	if hsTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(hsTimeout))
	}
	// reply arms a fresh write deadline around each handshake verdict so
	// a slowloris client that never drains its receive window cannot pin
	// this goroutine mid-write.
	reply := func(w io.Writer, status uint8, numSlots uint32, msg string) error {
		replied = true
		if hsTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(hsTimeout))
		}
		return writeReply(w, status, numSlots, msg)
	}
	rw := proto.Instrument(conn, &s.net)

	h, status, err := readHello(rw)
	if err != nil {
		return
	}
	var reg *registered
	msg := ""
	if status == statusOK {
		if s.isDraining() {
			status = statusDraining
		} else if h.ot == ot.Insecure && !s.cfg.AllowInsecureOT {
			status = statusBadRequest
			msg = "insecure OT refused (server runs without AllowInsecureOT)"
		} else if reg = s.reg[h.id]; reg == nil {
			status = statusUnknownCircuit
		} else if h.digest != reg.digest {
			status = statusDigestMismatch
		} else if reason := s.overBudgetReason(reg); reason != "" {
			status = statusOverBudget
			msg = reason
			s.sessionsOverBdgt.Add(1)
		}
	}
	if status != statusOK {
		if msg == "" {
			msg = statusMsg(status, h.id)
		}
		reply(rw, status, 0, msg)
		return
	}
	plan, err := s.cache.Get(h.id, func() (*circuit.Plan, error) {
		return circuit.NewPlan(reg.spec.Circuit)
	})
	if err != nil {
		reply(rw, statusBadRequest, 0, err.Error())
		return
	}

	// Post-handshake transport stack, innermost first: the instrumented
	// conn, the per-run byte budget (when configured), and — when the
	// client requested it and the server allows — the checksummed frame
	// codec. The handshake itself always runs unframed, so legacy and
	// integrity clients speak to the same listener.
	integrity := h.flags&helloFlagIntegrity != 0 && !s.cfg.DisableIntegrity
	srw := rw
	var bb *byteBudget
	if s.cfg.MaxRunBytes > 0 {
		bb = &byteBudget{inner: srw, limit: s.cfg.MaxRunBytes}
		srw = bb
	}
	var fr *proto.FramedConn
	if integrity {
		fr = proto.NewFramedConn(srw)
		srw = fr
	}

	// The pooled tier, like integrity, degrades transparently: a server
	// configured without it accepts the session with plain statusOK and
	// the client simply never sends a refill. Pooled sessions still need
	// a concrete on-demand protocol for miss runs — the garbler picks it
	// per circuit (IKNP amortizes past its base-OT cost only when the
	// evaluator input vector is wide enough to matter).
	pooled := h.ot == ot.Pooled && !s.cfg.DisablePooledOT
	otp := h.ot
	if h.ot == ot.Pooled {
		otp = ot.DH
		if reg.spec.Circuit.EvaluatorInputs > 128 {
			otp = ot.IKNP
		}
	}
	gs, err := s.garblerFor(reg, plan, srw, otp)
	if err != nil {
		reply(rw, statusBadRequest, 0, err.Error())
		return
	}
	defer reg.putRunner(gs)
	okStatus := uint8(statusOK)
	switch {
	case pooled && integrity:
		okStatus = statusOKPooledIntegrity
	case pooled:
		okStatus = statusOKPooled
	case integrity:
		okStatus = statusOKIntegrity
	}
	if err := reply(rw, okStatus, uint32(plan.NumSlots), ""); err != nil {
		return
	}
	conn.SetDeadline(time.Time{})

	var pool *ot.Pool
	var frame [1]byte
	for {
		if !s.setIdle(st, true) {
			return // draining: the client's next Run sees a closed session
		}
		_, err := io.ReadFull(srw, frame[:])
		s.setIdle(st, false)
		if err != nil || (frame[0] != opRun && frame[0] != opResume && frame[0] != opRefill) {
			return // opBye, garbage, or a dead/force-closed connection
		}
		if s.isDraining() {
			frame[0] = ackDraining
			srw.Write(frame[:])
			return
		}
		if frame[0] == opResume {
			// Resume frames only exist on the integrity tier; on the
			// legacy wire the byte is garbage.
			if fr == nil || !s.serveResume(conn, srw, gs, bb, h.id) {
				return
			}
			continue
		}
		if frame[0] == opRefill {
			// Refill frames only exist on the pooled tier; elsewhere the
			// byte is garbage.
			if !pooled || !s.serveRefill(conn, srw, gs, bb, &pool) {
				return
			}
			continue
		}
		var token uint64
		if fr != nil {
			// Checkpoint the run before it starts: the deterministic
			// garbling seed, keyed by an opaque token the client echoes
			// back if the transfer breaks. The seed never crosses the
			// wire — it would reveal every label of the run.
			token, err = newResumeToken()
			if err != nil {
				return
			}
			s.resume.put(token, resumeEntry{id: h.id, seed: gs.PendingSeed(), and: reg.and})
			var ack [9]byte
			ack[0] = ackGo
			binary.LittleEndian.PutUint64(ack[1:], token)
			if _, err := srw.Write(ack[:]); err != nil {
				s.resume.drop(token)
				return
			}
		} else {
			frame[0] = ackGo
			if _, err := srw.Write(frame[:]); err != nil {
				return
			}
		}
		bits := reg.zero
		if reg.spec.Inputs != nil {
			bits = reg.spec.Inputs()
		}
		// The run deadline covers the whole garbled execution — labels,
		// OT, table stream, result — so a peer that stalls mid-run
		// errors the session out instead of outliving the drain.
		if rt := s.cfg.RunTimeout; rt > 0 {
			conn.SetDeadline(time.Now().Add(rt))
		}
		if bb != nil {
			bb.reset()
		}
		start := time.Now()
		if _, err := gs.Run(bits); err != nil {
			s.failRun(err)
			return
		}
		if s.cfg.RunTimeout > 0 {
			conn.SetDeadline(time.Time{})
		}
		if fr != nil {
			s.resume.drop(token)
		}
		if pooled {
			if gs.LastRunPooled() {
				s.poolHits.Add(1)
			} else {
				s.poolMisses.Add(1)
			}
		}
		s.runs.Add(1)
		s.runNanos.Add(uint64(time.Since(start)))
	}
}

// failRun accounts one failed run, classifying integrity and budget
// causes.
func (s *Server) failRun(err error) {
	s.runsFailed.Add(1)
	if errors.Is(err, proto.ErrIntegrity) {
		s.integrityFailures.Add(1)
	}
	if errors.Is(err, ErrOverBudget) {
		s.runsOverBudget.Add(1)
	}
}

// serveResume answers one opResume frame: validate the token against
// the checkpoint store and either decline (ackNoResume — the client
// replays in full) or re-emit the run's stream from the client's
// verified-table offset. Returns false when the session must end.
func (s *Server) serveResume(conn net.Conn, srw io.ReadWriter, gs *proto.GarblerSession, bb *byteBudget, id string) bool {
	var req [16]byte
	if _, err := io.ReadFull(srw, req[:]); err != nil {
		return false
	}
	le := binary.LittleEndian
	token := le.Uint64(req[0:])
	got := le.Uint64(req[8:])
	e, ok := s.resume.get(token)
	var ack [1]byte
	if !ok || e.id != id || got > uint64(e.and) {
		ack[0] = ackNoResume
		_, err := srw.Write(ack[:])
		return err == nil
	}
	ack[0] = ackResume
	if _, err := srw.Write(ack[:]); err != nil {
		return false
	}
	if rt := s.cfg.RunTimeout; rt > 0 {
		conn.SetDeadline(time.Now().Add(rt))
	}
	if bb != nil {
		bb.reset()
	}
	start := time.Now()
	if _, err := gs.ResumeRun(e.seed, int(got)); err != nil {
		s.failRun(err)
		return false
	}
	if s.cfg.RunTimeout > 0 {
		conn.SetDeadline(time.Time{})
	}
	s.resume.drop(token)
	s.runsResumed.Add(1)
	s.runs.Add(1)
	s.runNanos.Add(uint64(time.Since(start)))
	return true
}

// serveRefill answers one opRefill frame: validate the requested base
// protocol and count, clamp the count to the pool's MaxPoolSize
// headroom, then run one lockstep ot.Pool fill — creating the session's
// sender pool (and paying its base OTs) on first use. A refusal
// (ackRefuse) leaves the session usable; returns false when the session
// must end.
func (s *Server) serveRefill(conn net.Conn, srw io.ReadWriter, gs *proto.GarblerSession, bb *byteBudget, pool **ot.Pool) bool {
	var req [5]byte // base u8 | n u32 LE
	if _, err := io.ReadFull(srw, req[:]); err != nil {
		return false
	}
	base := ot.Protocol(req[0])
	n := int(binary.LittleEndian.Uint32(req[1:]))
	max := s.cfg.MaxPoolSize
	if max <= 0 {
		max = defaultMaxPoolSize
	}
	level := 0
	if *pool != nil {
		level = (*pool).Level()
	}
	granted := n
	if level+granted > max {
		granted = max - level
	}
	badBase := base != ot.DH && !(base == ot.Insecure && s.cfg.AllowInsecureOT)
	if badBase || n <= 0 || granted <= 0 {
		var ack [1]byte
		ack[0] = ackRefuse
		_, err := srw.Write(ack[:])
		return err == nil
	}
	var ack [5]byte
	ack[0] = ackGo
	binary.LittleEndian.PutUint32(ack[1:], uint32(granted))
	if _, err := srw.Write(ack[:]); err != nil {
		return false
	}
	// The fill is bounded like a run: same deadline, fresh byte budget.
	if rt := s.cfg.RunTimeout; rt > 0 {
		conn.SetDeadline(time.Now().Add(rt))
	}
	if bb != nil {
		bb.reset()
	}
	if *pool == nil {
		p, err := ot.NewSenderPool(srw, base)
		if err != nil {
			return false
		}
		*pool = p
		gs.SetPool(p)
	}
	if err := (*pool).Fill(srw, granted); err != nil {
		return false
	}
	if s.cfg.RunTimeout > 0 {
		conn.SetDeadline(time.Time{})
	}
	s.poolRefills.Add(1)
	return true
}

// garblerFor takes a pooled garbler runner for the circuit, or builds
// one bound to this connection. Pooled runners keep their plan engine,
// label source and scratch, so session churn does not reallocate them.
func (s *Server) garblerFor(reg *registered, plan *circuit.Plan, rw io.ReadWriter, otp ot.Protocol) (*proto.GarblerSession, error) {
	if gs := reg.getRunner(); gs != nil {
		gs.Reset(rw, otp)
		return gs, nil
	}
	seed := s.cfg.Seed
	if seed != 0 {
		seed += s.seq.Add(1) // distinct deterministic stream per runner
	}
	return proto.NewGarblerSession(rw, proto.Options{
		Plan:    plan,
		Hasher:  s.cfg.Hasher,
		Workers: s.cfg.Workers,
		OT:      otp,
		Seed:    seed,
		Stats:   &s.tables,
	})
}
