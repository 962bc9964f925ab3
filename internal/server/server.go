package server

import (
	"bufio"
	"crypto/rand"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
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
	// two table arenas, since a runner garbles the next run into a
	// second arena while the current one streams — memory-accounted
	// admission, decided before any plan is built, so one oversized
	// circuit cannot OOM a backend.
	MaxCircuitBytes int64
	// MaxRunBytes, when > 0, bounds each run's transport bytes: sessions
	// whose minimum per-run stream already exceeds it are refused at
	// handshake, and a run that crosses it mid-stream errors out (typed
	// ErrOverBudget, counted in Stats.RunsOverBudget).
	MaxRunBytes int64
	// DisablePooledOT declines the precomputed-OT session tier even when
	// a client requests ot.Pooled in its hello; sessions then run every
	// OT on demand. Pooled-requesting clients fall back transparently —
	// the server accepts with plain statusOK, grants no pool and runs no
	// connect-time fill.
	DisablePooledOT bool
	// MaxPoolSize caps the per-session OT pool: the grant in a pooled
	// accept reply, which the connect-time fill seeds, is the hello's
	// request clamped to this many correlations, and in-run fills only
	// restore the level it granted. Each pooled correlation holds two
	// 16-byte labels server-side, and the bank keeps room for twice its
	// level so in-run fills rarely move it, so the cap bounds
	// per-session pool memory at roughly 64*MaxPoolSize bytes. Beside
	// it, each runner holds two table arenas of 32 bytes per AND gate
	// (the run streaming and the run garbled ahead): 4.3 MB each for
	// DotProduct(128,32), and MaxCircuitBytes counts both.
	// 0 means the 65536 default.
	MaxPoolSize int
	// TLS, when non-nil, wraps every listener passed to Serve so the
	// session wire (handshake and the 2PC byte stream) runs over TLS.
	// The ops sidecar is unaffected — it is plain HTTP meant to be
	// firewalled to the control plane. nil keeps the plaintext
	// transport, which remains the default for tests and loopback use.
	TLS *tls.Config
}

// defaultMaxPoolSize caps per-session OT pools when Config.MaxPoolSize
// is zero: 65536 correlations ≈ 2 MiB of sender-side label state (4 MiB
// with the bank's room for fills).
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
	// counts completed fills: each session's connect-time fill in the
	// handshake and the in-run fills of its pooled runs.
	PoolHits, PoolMisses, PoolRefills uint64
	// TableSendNanos is the time runs spent inside the transport's
	// Write pushing tables. TableDrainWaitNanos is the wall time of the
	// runs' table streams, from the end of each run's input phase until
	// its garbling had ended and its last table had left; it holds
	// every table write, and the rest of it is time runs waited for
	// their runner's garble goroutine.
	TableSendNanos, TableDrainWaitNanos uint64
}

// registered is a servable circuit plus its per-circuit runner pool.
// The pool is an explicit free-list rather than a sync.Pool: each runner
// owns a garble goroutine, so runners must be Closed
// deterministically at shutdown, never silently dropped by GC.
type registered struct {
	spec   CircuitSpec
	digest [32]byte
	zero   []bool // all-false garbler bits when spec.Inputs == nil

	// Static budget inputs, computed once at New: a conservative
	// resident-memory estimate (labels, two table arenas, plan slots) and the
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

// closeRunners stops every pooled runner's garble and pool goroutines,
// returning once they have exited.
func (r *registered) closeRunners() {
	r.mu.Lock()
	free := r.free
	r.free = nil
	r.mu.Unlock()
	for _, gs := range free {
		gs.Close()
	}
}

// session is one accepted connection. Everything but conn is filled in
// by the handshake, owned by the session's goroutine and handed whole
// to each op handler.
type session struct {
	conn net.Conn

	replied   bool // the handshake verdict went out
	reg       *registered
	gs        *proto.GarblerSession
	rw        io.ReadWriter // post-handshake stack: conn, read buffer, byte budget, frame codec
	bb        *byteBudget   // nil without Config.MaxRunBytes
	integrity bool          // checksummed frames; the session speaks opResume
	pooled    bool          // precomputed-OT tier; the handshake seeds the pool
	// buf holds each op's request and ack (17 bytes fits the largest,
	// opResume), so a run allocates nothing on the wire exchange.
	buf [17]byte
}

// ack writes the one-byte answer code; it reports whether the write
// went through.
func (st *session) ack(code byte) bool {
	st.buf[0] = code
	_, err := st.rw.Write(st.buf[:1])
	return err == nil
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
	// tables collects every garbler runner's table-stream timing: runners
	// take it as their Options.Stats, and a garbler session counts no
	// bytes, so only its timers move.
	tables proto.Stats

	// The daemon accepts and drains the sessions and serves the ops
	// sidecar: Serve, ServeOps and OpsHandler are its.
	*daemon

	active        atomic.Int64
	sessionsTotal atomic.Uint64
	runs          atomic.Uint64
	runsFailed    atomic.Uint64
	runNanos      atomic.Uint64
	refused       atomic.Uint64
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
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.MaxPoolSize <= 0 {
		cfg.MaxPoolSize = defaultMaxPoolSize
	}
	s := &Server{
		cfg:   cfg,
		reg:   make(map[string]*registered, len(cfg.Circuits)),
		cache: NewPlanCache(cfg.PlanCacheSize),
	}
	s.daemon = NewDaemon(DaemonConfig{
		TLS:          cfg.TLS,
		DrainTimeout: cfg.DrainTimeout,
		ErrClosed:    ErrDraining,
		Admit:        s.admit,
		Handle:       s.handle,
		Ready:        s.ready,
		Metrics:      s.metricsText,
	})
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
			memBytes: int64(c.NumWires())*label.Size +
				2*int64(and)*gc.MaterialSize +
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
		SessionsForceClosed: s.ForceClosed(),
		RunsFailed:          s.runsFailed.Load(),
		RunNanos:            s.runNanos.Load(),
		AcceptRetries:       s.AcceptRetries(),

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

// daemon names the Daemon a Server embeds, keeping the embedded field
// unexported.
type daemon = Daemon

// saturated reports whether the server holds Config.MaxSessions
// sessions.
func (s *Server) saturated() bool {
	return s.cfg.MaxSessions > 0 && s.active.Load() >= int64(s.cfg.MaxSessions)
}

// admit is the accept loop's admission control: it sees the session
// count serially, so exactly the connections over Config.MaxSessions
// are shed, refused busy.
func (s *Server) admit(conn net.Conn) bool {
	if s.saturated() {
		s.refused.Add(1)
		go s.refuse(conn)
		return false
	}
	s.active.Add(1)
	s.sessionsTotal.Add(1)
	return true
}

// refuse completes the handshake of an over-limit connection with
// statusBusy. The hello is read first — on synchronous transports the
// client blocks in its hello write until the server consumes it, so
// replying before reading would deadlock both ends.
func (s *Server) refuse(conn net.Conn) {
	defer conn.Close()
	if hs := s.cfg.HandshakeTimeout; hs > 0 {
		conn.SetDeadline(time.Now().Add(hs))
	}
	if _, _, err := readHello(conn); err != nil {
		return
	}
	writeReply(conn, statusBusy, 0, 0, statusMsg(statusBusy, ""))
}

// Close drains the server: listeners stop accepting, idle sessions are
// disconnected, and in-flight runs get Config.DrainTimeout to finish
// before their connections are force-closed — so Close returns within a
// bound even against a client stalled mid-run. Safe to call more than
// once.
func (s *Server) Close() error {
	s.daemon.Close()
	// Every session has returned its runner; stop their goroutines.
	for _, reg := range s.reg {
		reg.closeRunners()
	}
	return nil
}

// handle runs one session: the handshake, then the op loop until the
// client says goodbye, the connection dies, or the server drains.
func (s *Server) handle(conn net.Conn) {
	st := &session{conn: conn}
	defer s.active.Add(-1)
	// Blast-radius containment: a panic anywhere in this session — a
	// poisoned Inputs callback, a bug tripped by one circuit — is
	// contained to the session. The recover defer runs before the
	// cleanup defer (LIFO), so the session still unregisters and the
	// server keeps serving everyone else.
	defer func() {
		if r := recover(); r != nil {
			s.sessionsPanicked.Add(1)
			if !st.replied {
				writeReply(st.conn, statusInternal, 0, 0, statusMsg(statusInternal, ""))
			}
		}
	}()
	ok := s.handshake(st)
	if st.gs != nil {
		defer st.reg.putRunner(st.gs)
	}
	if !ok {
		return
	}
	for {
		if !s.setIdle(conn, true) {
			return // draining: the client's next Run sees a closed session
		}
		if st.bb != nil {
			st.bb.reset() // the op frame counts against the op it opens
		}
		_, err := io.ReadFull(st.rw, st.buf[:1])
		s.setIdle(conn, false)
		op := st.buf[0]
		// Resume frames only exist on the integrity tier; anywhere else,
		// like an unknown op, the byte is garbage.
		known := op == opRun || op == opResume && st.integrity
		if err != nil || !known {
			return // opBye, garbage, or a dead/force-closed connection
		}
		if s.isDraining() {
			st.ack(ackDraining)
			return
		}
		if op == opRun {
			ok = s.serveRun(st)
		} else {
			ok = s.serveResume(st)
		}
		if !ok {
			return
		}
	}
}

// handshake reads the hello and answers it. On admission it fills in
// st's per-session state — circuit, garbler runner, wire tiers and
// transport stack — and reports true once the accept went out and, on
// the pooled tier, the connect-time fill completed. A runner it took
// (st.gs) is the caller's to return, whatever the verdict.
func (s *Server) handshake(st *session) bool {
	conn := st.conn
	hsTimeout := s.cfg.HandshakeTimeout
	if hsTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(hsTimeout))
	}
	rw := proto.Instrument(conn, &s.net)
	// reply arms a fresh deadline around each handshake verdict and the
	// connect-time fill after an accept, so a slowloris client that never
	// drains its receive window cannot pin this goroutine mid-write.
	reply := func(status uint8, numSlots, grant uint32, msg string) error {
		st.replied = true
		if hsTimeout > 0 {
			conn.SetDeadline(time.Now().Add(hsTimeout))
		}
		return writeReply(rw, status, numSlots, grant, msg)
	}

	h, status, err := readHello(rw)
	if err != nil {
		return false
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
		reply(status, 0, 0, msg)
		return false
	}
	plan, err := s.cache.Get(h.id, func() (*circuit.Plan, error) {
		return circuit.NewPlan(reg.spec.Circuit)
	})
	if err != nil {
		reply(statusBadRequest, 0, 0, err.Error())
		return false
	}
	st.reg = reg

	// Post-handshake transport stack, innermost first: the instrumented
	// conn, one read buffer under every read the session makes (op
	// frames, choice corrections, fill columns, results — a pooled run's
	// op frame is one read), the per-op byte budget (when configured),
	// and — when the client requested it and the server allows — the
	// checksummed frame codec. The budget sits above the buffer, so it
	// charges the bytes an op consumes, never bytes read ahead. The
	// handshake itself always runs unbuffered and unframed, so legacy and
	// integrity clients speak to the same listener.
	st.rw = struct {
		io.Reader
		io.Writer
	}{bufio.NewReader(rw), rw}
	if s.cfg.MaxRunBytes > 0 {
		st.bb = &byteBudget{inner: st.rw, limit: s.cfg.MaxRunBytes}
		st.rw = st.bb
	}
	st.integrity = h.flags&helloFlagIntegrity != 0 && !s.cfg.DisableIntegrity
	if st.integrity {
		st.rw = proto.NewFramedConn(st.rw)
	}

	// The pooled tier, like integrity, degrades transparently: a server
	// configured without it accepts the session with plain statusOK and
	// grants no pool. Pooled sessions still need
	// a concrete on-demand protocol for miss runs — the garbler picks it
	// per circuit (IKNP amortizes past its base-OT cost only when the
	// evaluator input vector is wide enough to matter).
	st.pooled = h.ot == ot.Pooled && !s.cfg.DisablePooledOT
	otp := h.ot
	if h.ot == ot.Pooled {
		otp = ot.DH
		if reg.spec.Circuit.EvaluatorInputs > 128 {
			otp = ot.IKNP
		}
	}
	st.gs, err = s.garblerFor(reg, plan, st.rw, otp)
	if err != nil {
		reply(statusBadRequest, 0, 0, err.Error())
		return false
	}
	accept := uint8(statusOK)
	switch {
	case st.pooled && st.integrity:
		accept = statusOKPooledIntegrity
	case st.pooled:
		accept = statusOKPooled
	case st.integrity:
		accept = statusOKIntegrity
	}
	// Only a pooled accept carries the grant; h.pool is 0 for any other
	// hello.
	grant := min(h.pool, uint32(s.cfg.MaxPoolSize))
	if reply(accept, uint32(plan.NumSlots), grant, "") != nil {
		return false
	}
	if st.pooled {
		// The connect-time fill, in lockstep with the client's, through
		// the byte budget like any op: the connection pays its base OTs
		// here, so its first run is served from the pool, and the level
		// the fill leaves is the pool's target.
		if st.bb != nil {
			st.bb.reset()
		}
		p, err := ot.NewSenderPool(st.rw, ot.DH)
		if err != nil || p.Fill(st.rw, int(grant)) != nil {
			return false
		}
		p.SetTarget(p.Level())
		st.gs.SetPool(p)
		s.poolRefills.Add(1)
	}
	conn.SetDeadline(time.Time{})
	return true
}

// bounded runs one accepted op's body — a run or a resume — the way
// every op is bounded: Config.RunTimeout arms a read+write deadline
// over the whole body, so a peer that stalls mid-op errors the session
// out instead of outliving the drain. (The op's byte budget
// started afresh when its op byte was read.)
func (s *Server) bounded(st *session, body func() error) error {
	if rt := s.cfg.RunTimeout; rt > 0 {
		st.conn.SetDeadline(time.Now().Add(rt))
	}
	if err := body(); err != nil {
		return err
	}
	if s.cfg.RunTimeout > 0 {
		st.conn.SetDeadline(time.Time{})
	}
	return nil
}

// garble runs a run's or a resume's body under bounded and counts it
// served, or failed with its integrity and budget causes classified. It
// reports whether the session may go on.
func (s *Server) garble(st *session, body func() error) bool {
	start := time.Now()
	if err := s.bounded(st, body); err != nil {
		s.runsFailed.Add(1)
		if errors.Is(err, proto.ErrIntegrity) {
			s.integrityFailures.Add(1)
		}
		if errors.Is(err, ErrOverBudget) {
			s.runsOverBudget.Add(1)
		}
		return false
	}
	s.runs.Add(1)
	s.runNanos.Add(uint64(time.Since(start)))
	return true
}

// serveRun answers one opRun frame: ack it and garble one run. The ack
// leaves in the garbler's first flush, with the run header — after the
// garbler has read a pool hit's choice correction, the rest of the op's
// frame. A hit that carries an in-run fill gets the fill's bytes added
// to its byte budget and counts as a refill. On the integrity tier the
// run is checkpointed first — the deterministic garbling seed, keyed by
// an opaque token the ack carries and the client echoes back if the
// transfer breaks (resume.go).
func (s *Server) serveRun(st *session) bool {
	var token uint64
	extra := 0
	if st.integrity {
		if _, err := rand.Read(st.buf[1:9]); err != nil {
			return false
		}
		token = binary.LittleEndian.Uint64(st.buf[1:])
		s.resume.put(token, resumeEntry{id: st.reg.spec.ID, seed: st.gs.PendingSeed(), and: st.reg.and})
		extra = 8
	}
	st.buf[0] = ackGo
	st.gs.Lead(st.buf[:1+extra])
	bits := st.reg.zero
	if st.reg.spec.Inputs != nil {
		bits = st.reg.spec.Inputs()
	}
	fill := st.gs.NextFill()
	if st.bb != nil {
		st.bb.raise(proto.FillWireBytes(fill, st.integrity))
	}
	if !s.garble(st, func() error { _, err := st.gs.Run(bits); return err }) {
		return false
	}
	if st.integrity {
		s.resume.drop(token)
	}
	if st.pooled {
		if st.gs.LastRunPooled() {
			s.poolHits.Add(1)
		} else {
			s.poolMisses.Add(1)
		}
	}
	if fill > 0 {
		s.poolRefills.Add(1)
	}
	return true
}

// serveResume answers one opResume frame: validate the token against
// the checkpoint store and either decline (ackNoResume — the client
// replays in full) or re-emit the run's stream from the client's
// verified-table offset.
func (s *Server) serveResume(st *session) bool {
	req := st.buf[1:17] // token u64 | got u64
	if _, err := io.ReadFull(st.rw, req); err != nil {
		return false
	}
	token := binary.LittleEndian.Uint64(req)
	got := binary.LittleEndian.Uint64(req[8:])
	e, ok := s.resume.get(token)
	if !ok || e.id != st.reg.spec.ID || got > uint64(e.and) {
		return st.ack(ackNoResume)
	}
	if !st.ack(ackResume) ||
		!s.garble(st, func() error { _, err := st.gs.ResumeRun(e.seed, int(got)); return err }) {
		return false
	}
	s.resume.drop(token)
	s.runsResumed.Add(1)
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
		Plan:  plan,
		OT:    otp,
		Seed:  seed,
		Stats: &s.tables,
	})
}
