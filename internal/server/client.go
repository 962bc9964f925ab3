package server

import (
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"syscall"
	"time"

	"haac/internal/circuit"
	"haac/internal/ot"
	"haac/internal/proto"
)

// RetryPolicy configures the client's self-healing behavior: how Dial
// retries the initial connection and how Session.Run transparently
// redials, re-handshakes and replays a run after a retryable failure.
//
// Replaying a run is safe because a run is a pure function of its
// inputs: the server garbles with fresh labels each attempt and commits
// no state until the run completes, so a replay is indistinguishable
// from a first attempt. The zero policy disables retry entirely — every
// failure surfaces immediately, exactly the pre-retry behavior.
type RetryPolicy struct {
	// MaxAttempts bounds the total attempts per operation (first try
	// included). 0 and 1 both mean "no retry".
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it (capped at MaxBackoff). Default 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff. Default 2s.
	MaxBackoff time.Duration
	// HandshakeTimeout bounds each redial's connect + hello + reply
	// exchange, so one stalled backend cannot absorb the whole retry
	// budget. 0 means no per-attempt deadline.
	HandshakeTimeout time.Duration
	// RunTimeout bounds each run attempt end to end. Corruption that
	// lands in a frame-length field can leave the client waiting for
	// payload bytes the server never sent while the server waits for
	// the next op — a deadline resolves that mutual stall into a
	// retryable timeout. 0 means no per-attempt deadline.
	RunTimeout time.Duration
	// Seed makes the jitter sequence deterministic when nonzero (tests);
	// zero seeds from the global source.
	Seed uint64
}

// enabled reports whether the policy retries at all.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// attempts returns the attempt bound (at least 1).
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// retryJitter is the fraction of each backoff randomized away,
// de-synchronizing a fleet of clients redialing a restarted backend.
const retryJitter = 0.2

// backoff returns the sleep before retry number n (n >= 1), with
// exponential growth, cap and jitter.
func (p RetryPolicy) backoff(n int, rng *rand.Rand) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if rng != nil {
		d -= time.Duration(float64(d) * retryJitter * rng.Float64())
	}
	return d
}

// ClientStats counts a session's self-healing activity. Snapshot it
// with Session.Stats; the counters are owned by the session's goroutine
// (a Session is not safe for concurrent use, and neither is reading its
// stats mid-Run).
type ClientStats struct {
	// Runs counts completed runs, RunFailures runs that surfaced an
	// error to the caller after exhausting the retry budget.
	Runs, RunFailures uint64
	// Retries counts run attempts that failed retryably and were
	// replayed; Reconnects counts successful redial + re-handshake
	// cycles; DialFailures counts redial attempts that did not produce
	// a working session.
	Retries, Reconnects, DialFailures uint64
	// Resumes counts broken runs the server agreed to continue from the
	// last verified chunk instead of replaying in full (integrity tier);
	// Retries-Resumes is the full-replay count.
	Resumes uint64
	// IntegrityFailures counts checksummed frames this client rejected
	// on its inbound stream — corruption caught before it could become a
	// silent wrong output.
	IntegrityFailures uint64
	// PoolHits counts runs whose evaluator labels came out of the
	// session's precomputed OT pool; PoolMisses counts pooled-tier runs
	// that fell back to an on-demand OT; PoolRefills counts completed
	// fills: each connection's connect-time fill in the handshake and
	// the in-run fills of pooled runs.
	PoolHits, PoolMisses, PoolRefills uint64
	// TableReadWaitNanos is the time this session's runs spent reading
	// tables: the evaluator blocked on the garbler's stream.
	TableReadWaitNanos uint64
}

// MetricsText renders the counters in Prometheus text exposition
// format, mirroring the server's /metrics so a client-side sidecar can
// export its half of the resilience story.
func (cs ClientStats) MetricsText() string {
	var m MetricsWriter
	m.Counter("haac_client_runs_total", "Runs completed by this session.", float64(cs.Runs))
	m.Counter("haac_client_run_failures_total", "Runs that failed after exhausting retries.", float64(cs.RunFailures))
	m.Counter("haac_client_run_retries_total", "Run attempts replayed after a retryable failure.", float64(cs.Retries))
	m.Counter("haac_client_reconnects_total", "Successful redial and re-handshake cycles.", float64(cs.Reconnects))
	m.Counter("haac_client_dial_failures_total", "Redial attempts that failed.", float64(cs.DialFailures))
	m.Counter("haac_client_run_resumes_total", "Broken runs resumed mid-stream instead of replayed in full.", float64(cs.Resumes))
	m.Counter("haac_client_integrity_failures_total", "Inbound checksummed frames rejected by the integrity tier.", float64(cs.IntegrityFailures))
	m.Counter("haac_client_pool_hits_total", "Runs served from the precomputed OT pool.", float64(cs.PoolHits))
	m.Counter("haac_client_pool_misses_total", "Pooled-tier runs that fell back to on-demand OT.", float64(cs.PoolMisses))
	m.Counter("haac_client_pool_refills_total", "Completed OT-pool fills: connect-time fills in the handshake plus in-run fills.", float64(cs.PoolRefills))
	m.Counter("haac_client_table_read_wait_seconds_total", "Seconds this session's runs spent reading tables, blocked on the garbler's stream.", time.Duration(cs.TableReadWaitNanos).Seconds())
	return m.String()
}

// Options configures the client side of a session.
type Options struct {
	// OT selects the oblivious-transfer protocol for the session's runs
	// (default ot.DH). The server honors the request.
	OT ot.Protocol
	// Plan, when non-nil, must be compiled from the session's circuit.
	// The client always evaluates through a persistent plan runner with
	// zero steady-state allocations per run; a session that does not
	// bring a plan takes one from a small process-wide cache, compiling
	// on first use. Share one plan across every session of a circuit.
	Plan *circuit.Plan
	// Stats, when non-nil, accumulates the session's transport bytes.
	Stats *proto.Stats
	// Retry is the self-healing policy: with MaxAttempts > 1, Dial
	// retries the initial connection and Run transparently redials,
	// re-handshakes (digest re-verified by the server) and replays the
	// run after drops, resets, deadline expiries and malformed frames.
	Retry RetryPolicy
	// Dialer overrides how (re)connections are opened — tests route it
	// through a fault-injecting transport, proxies through their own
	// resolver. nil means net.Dial("tcp", addr).
	Dialer func(addr string) (net.Conn, error)
	// TLS, when non-nil, wraps every (re)dialed connection in a TLS
	// client handshake against a server running with Config.TLS. The
	// config needs ServerName (or InsecureSkipVerify) set by the caller;
	// it composes with Dialer — the TLS layer wraps whatever transport
	// the dialer returns. nil keeps the plaintext default.
	TLS *tls.Config
	// Integrity requests the checksummed-frame wire tier: every
	// post-handshake byte travels in length+CRC32C frames, corruption
	// surfaces as a typed retryable error instead of a garbage decode,
	// and broken runs resume from the last verified chunk instead of
	// replaying. A server that does not speak the tier (or disables it)
	// declines during the handshake and the session falls back to the
	// legacy wire — check Session.Integrity for the negotiated outcome.
	Integrity bool
	// MaxRunBytes, when positive, bounds the bytes this client will move
	// for a single run; a breach surfaces as a permanent ErrOverBudget.
	// Mirrors the server-side Config.MaxRunBytes on the client's half of
	// the transfer.
	MaxRunBytes int64
	// PoolSize, when positive, requests the precomputed-OT session tier:
	// the hello asks for a pool of this many random-OT correlations and
	// the session keeps it (or the server's smaller grant), filled inside
	// every (re)connect's handshake and topped back up inside the runs
	// that drain it — a pooled run that leaves the pool
	// min(PoolSize/2, 16384) or more below its size carries a fill of
	// the whole deficit, whose columns travel client→server while the
	// run's tables stream back. A steady-state
	// Run's online OT is then one XOR round with no base OTs. A run that
	// finds the pool short of its demand falls back to the on-demand
	// protocol for that run (a PoolMiss). A server that declines the
	// tier accepts the session unpooled — check Session.Pooled for the
	// negotiated outcome.
	PoolSize int
}

// clientPlans caches compiled plans for sessions that did not bring
// their own, so dialing the same circuit repeatedly compiles it once.
var clientPlans = NewPlanCache(8)

// ensurePlan fills Options.Plan, sharing compiled plans across sessions
// of the same circuit.
func (o *Options) ensurePlan(c *circuit.Circuit) error {
	if o.Plan != nil {
		return nil
	}
	d := circuit.Digest(c)
	// The pointer joins the key because a plan is only usable with the
	// exact circuit value it was compiled from.
	key := fmt.Sprintf("%x-%p", d[:8], c)
	p, err := clientPlans.Get(key, func() (*circuit.Plan, error) { return circuit.NewPlan(c) })
	if err != nil {
		return err
	}
	o.Plan = p
	return nil
}

// dial opens one connection via the configured dialer, wrapping it in
// TLS when configured.
func (o Options) dial(addr string) (conn net.Conn, err error) {
	if o.Dialer != nil {
		conn, err = o.Dialer(addr)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err == nil && o.TLS != nil {
		conn = tls.Client(conn, o.TLS)
	}
	return conn, err
}

// Session is a client (evaluator) session against a serving garbler.
// Run may be called any number of times; the session amortizes its
// transport buffers and evaluation engine across runs, and — when
// Options.Retry is enabled — transparently reconnects and replays runs across backend restarts.
// Not safe for concurrent use — open one session per goroutine; the
// server multiplexes them.
type Session struct {
	conn     net.Conn
	rw       io.ReadWriter
	es       *proto.EvaluatorSession
	numSlots int
	// rw writes straight to the connection's wire stack and reads through
	// the evaluator's buffered reader (proto.EvaluatorSession.Conn), so
	// an op's ack and the run stream behind it arrive in one read. buf
	// holds each op's request and ack (17 bytes fits the largest,
	// opResume); runReq holds the run op and, on a pool hit, the choice
	// correction. Both persist, so a run allocates nothing on the wire
	// exchange.
	buf    [17]byte
	runReq []byte
	closed bool // Close was called: permanently done
	broken bool // the connection failed: reconnectable under Retry

	// Integrity-tier state. fc and bb are reused across reconnects; the
	// grant is renegotiated on every handshake (a redial may land on a
	// backend with a different policy). runToken identifies the latest
	// attempt's server-side checkpoint — it is read fresh with every run
	// ack, so it always matches the evaluator's partial state.
	fc        *proto.FramedConn
	bb        *byteBudget
	integrity bool
	runToken  uint64
	hasToken  bool

	// Pooled-tier state. The pool is bound to the current connection's
	// base-OT exchange, so it is rebuilt from scratch on every
	// (re)connect; its target is the handshake's grant.
	pooled bool
	pool   *ot.Pool

	// Reconnect state.
	addr  string
	hello hello
	opts  Options
	rng   *rand.Rand
	stats ClientStats
}

// Dial connects to a serving garbler at addr and opens a session for
// the identified circuit, retrying per opts.Retry. The client must hold
// a structurally identical circuit: its digest is checked during the
// handshake on every (re)connection.
func Dial(addr, circuitID string, c *circuit.Circuit, opts Options) (*Session, error) {
	if err := opts.ensurePlan(c); err != nil {
		return nil, err
	}
	// The evaluator runner is built once, unbound: setup binds it to each
	// (re)connection. Its errors are local, so retrying cannot help.
	es, err := proto.NewEvaluatorSession(nil, c, proto.Options{
		OT:   opts.OT,
		Plan: opts.Plan,
	})
	if err != nil {
		return nil, err
	}
	s := &Session{
		es:    es,
		addr:  addr,
		hello: hello{ot: opts.OT, id: circuitID, digest: circuit.Digest(c)},
		opts:  opts,
		rng:   newJitterRNG(opts.Retry.Seed),
	}
	// The hello asks for the pooled tier, and its pool, in its OT byte
	// and pool field, and for the integrity tier in its flags.
	if opts.PoolSize > 0 {
		s.hello.ot = ot.Pooled
		s.hello.pool = uint32(min(uint64(opts.PoolSize), math.MaxUint32))
	}
	if opts.Integrity {
		s.hello.flags = helloFlagIntegrity
	}
	for attempt := 1; ; attempt++ {
		err := s.setup()
		if err == nil {
			return s, nil
		}
		if attempt >= opts.Retry.attempts() || !retryable(err) {
			s.es.Close()
			return nil, err
		}
		time.Sleep(opts.Retry.backoff(attempt, s.rng))
	}
}

// wireStack builds the post-handshake transport over the instrumented
// connection: the optional client-side run budget, then the checksummed
// frame codec when the server granted the integrity tier. The codec and
// budget objects are reused across reconnects so steady-state healing
// stays allocation-free.
func (s *Session) wireStack(rw io.ReadWriter, granted bool) io.ReadWriter {
	if s.opts.MaxRunBytes > 0 {
		if s.bb == nil {
			s.bb = &byteBudget{limit: s.opts.MaxRunBytes}
		}
		s.bb.inner = rw
		s.bb.reset()
		rw = s.bb
	}
	if granted {
		if s.fc == nil {
			s.fc = proto.NewFramedConn(rw)
		} else {
			s.fc.Reset(rw)
		}
		rw = s.fc
	}
	s.integrity = granted
	return rw
}

// newJitterRNG seeds the backoff jitter source.
func newJitterRNG(seed uint64) *rand.Rand {
	if seed == 0 {
		seed = uint64(time.Now().UnixNano()) | 1
	}
	return rand.New(rand.NewSource(int64(seed)))
}

// connect dials addr, installs the new connection and exchanges hello
// and reply under Retry.HandshakeTimeout, which it leaves armed. It
// leaves s.rw bound to the connection's wire stack and returns the
// pool's grant (0 off the pooled tier).
func (s *Session) connect() (grant int, err error) {
	conn, err := s.opts.dial(s.addr)
	if err != nil {
		return 0, fmt.Errorf("server: dial: %w", err)
	}
	s.conn = conn
	if d := s.opts.Retry.HandshakeTimeout; d > 0 {
		conn.SetDeadline(time.Now().Add(d))
	}
	rw := proto.Instrument(conn, s.opts.Stats)
	if err := writeHello(rw, s.hello); err != nil {
		return 0, err
	}
	a, err := readReply(rw)
	if err != nil {
		return 0, err
	}
	if a.pooled && (a.grant == 0 || a.grant > s.hello.pool) {
		return 0, s.fail(fmt.Errorf("%w: pool granted %d of %d", ErrMalformedFrame, a.grant, s.hello.pool))
	}
	s.rw = s.wireStack(rw, a.integrity)
	// Pool state is per-connection: the old pool's correlations derive
	// from the old connection's base OTs and die with it.
	s.pooled = a.pooled
	s.pool = nil
	s.numSlots = int(a.numSlots)
	return int(a.grant), nil
}

// setup is one (re)connection, shared by Dial's attempts and
// reconnect: connect, bind the persistent evaluator runner to the new
// connection and, on the pooled tier, run the connect-time fill of the
// granted correlations in lockstep with the server's, still under
// Retry.HandshakeTimeout. The connection pays its base OTs there, so
// the first Run is already served from the pool, and the level the
// fill leaves is the pool's target. On error the connection is torn
// down and the session is left broken.
func (s *Session) setup() error {
	grant, err := s.connect()
	if err == nil {
		s.es.Reset(s.rw) // also detaches the old connection's pool
		s.rw = s.es.Conn()
	}
	if err == nil && grant > 0 {
		var p *ot.Pool
		if p, err = ot.NewReceiverPool(s.rw, ot.DH); err == nil {
			err = p.Fill(s.rw, grant)
		}
		if err == nil {
			p.SetTarget(p.Level())
			s.pool = p
			s.es.SetPool(p)
			s.stats.PoolRefills++
		}
	}
	if err != nil {
		s.breakConn()
		return err
	}
	if s.opts.Retry.HandshakeTimeout > 0 {
		s.conn.SetDeadline(time.Time{})
	}
	s.broken = false
	return nil
}

// reconnect replaces a broken connection: redial, re-handshake (the
// server re-verifies the circuit digest) and rebind the persistent
// evaluator runner to the new transport.
func (s *Session) reconnect() error {
	if s.conn != nil {
		s.conn.Close()
	}
	if err := s.setup(); err != nil {
		s.stats.DialFailures++
		return err
	}
	s.stats.Reconnects++
	return nil
}

// NumSlots reports the slot-arena width of the server's plan for this
// circuit — evidence of the shared precompiled plan behind the session.
func (s *Session) NumSlots() int { return s.numSlots }

// Stats returns a snapshot of the session's self-healing counters.
func (s *Session) Stats() ClientStats {
	cs := s.stats
	cs.TableReadWaitNanos = uint64(s.es.TableReadWait())
	return cs
}

// Pooled reports whether the current connection negotiated the
// precomputed-OT session tier. Like Integrity, it can change across
// reconnects when a redial lands on a backend with a different policy.
func (s *Session) Pooled() bool { return s.pooled }

// PoolLevel reports the random-OT correlations currently banked for
// this session (0 when unpooled or before the first fill).
func (s *Session) PoolLevel() int {
	if s.pool == nil {
		return 0
	}
	return s.pool.Level()
}

// Integrity reports whether the current connection negotiated the
// checksummed-frame wire tier. It can change across reconnects when a
// redial lands on a backend with a different policy.
func (s *Session) Integrity() bool { return s.integrity }

// retryable classifies an error as transport damage worth a fresh
// connection: peer drops and resets, expired deadlines, malformed or
// corrupted frames, a dead session, and admission refusals that a
// restarted or load-shed backend raises transiently (ErrBusy,
// ErrDraining — in a fleet the redial lands on a live backend), plus
// integrity-check failures (the data is damaged, not the server) and
// contained server panics (the poison was one session's). Handshake
// refusals that no retry can fix — unknown circuit, digest mismatch,
// version mismatch, bad request, over-budget — are permanent.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrUnknownCircuit) || errors.Is(err, ErrDigestMismatch) ||
		errors.Is(err, ErrBadVersion) || errors.Is(err, ErrBadRequest) ||
		errors.Is(err, ErrOverBudget) {
		return false
	}
	if errors.Is(err, proto.ErrPeerClosed) || errors.Is(err, proto.ErrDeadline) ||
		errors.Is(err, proto.ErrMalformedFrame) || errors.Is(err, ErrMalformedFrame) ||
		errors.Is(err, ErrSessionClosed) || errors.Is(err, ErrBusy) || errors.Is(err, ErrDraining) ||
		errors.Is(err, proto.ErrIntegrity) || errors.Is(err, ErrInternal) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// Run executes one garbled run as the evaluator and returns the
// plaintext outputs. The returned slice is reused by the next Run.
//
// Under Options.Retry a retryable failure — dropped connection, reset,
// deadline, malformed frame, busy/draining refusal — triggers redial,
// re-handshake and replay until the run completes or the attempt budget
// is spent; the final error then wraps both ErrSessionClosed and the
// last underlying cause. Without retry, a server that is draining
// refuses with ErrDraining and a dead connection surfaces
// ErrSessionClosed immediately.
func (s *Session) Run(evalBits []bool) ([]bool, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	policy := s.opts.Retry
	canHeal := policy.enabled() && s.addr != ""
	var lastErr error
	for attempt := 1; ; attempt++ {
		if s.broken {
			if !canHeal {
				s.stats.RunFailures++
				return nil, ErrSessionClosed
			}
			if err := s.reconnect(); err != nil {
				lastErr = err
				if attempt >= policy.attempts() || !retryable(err) {
					s.stats.RunFailures++
					return nil, fmt.Errorf("%w: reconnect failed after %d attempts: %w", ErrSessionClosed, attempt, lastErr)
				}
				time.Sleep(policy.backoff(attempt, s.rng))
				continue
			}
		}
		if d := policy.RunTimeout; d > 0 && s.conn != nil {
			s.conn.SetDeadline(time.Now().Add(d))
		}
		out, err := s.attemptOnce(evalBits)
		if policy.RunTimeout > 0 && s.conn != nil {
			s.conn.SetDeadline(time.Time{})
		}
		if err == nil {
			s.stats.Runs++
			return out, nil
		}
		lastErr = err
		if errors.Is(err, proto.ErrIntegrity) {
			s.stats.IntegrityFailures++
		}
		if !canHeal || attempt >= policy.attempts() || !retryable(err) {
			s.stats.RunFailures++
			return nil, err
		}
		s.stats.Retries++
		time.Sleep(policy.backoff(attempt, s.rng))
	}
}

// attemptOnce plays one run attempt: a mid-stream resume when the
// previous attempt left a server checkpoint and verified chunks behind,
// a normal run otherwise. A declined resume falls through to a full
// replay on the same connection — the server answered the resume frame,
// so the stream is still in protocol.
func (s *Session) attemptOnce(evalBits []bool) ([]bool, error) {
	if s.integrity && s.hasToken {
		if got, ok := s.es.Progress(); ok {
			out, err := s.resumeOnce(got)
			if !errors.Is(err, errNoResume) {
				return out, err
			}
		}
	}
	return s.runOnce(evalBits)
}

// open starts one op: it starts the op's byte budget afresh — the op
// frame and its ack count against the op they open — and writes the
// op's frame in one write. A wire error fails the session as closed.
func (s *Session) open(frame []byte) error {
	if s.bb != nil {
		s.bb.reset()
	}
	if _, err := s.rw.Write(frame); err != nil {
		return s.fail(err)
	}
	return nil
}

// answer reads the server's one-byte answer to op and returns it when
// it is one of accept. Every op shares the rest: ackDraining breaks the
// connection with ErrDraining, any other byte fails the session as
// malformed, and a wire error fails it as closed.
func (s *Session) answer(op byte, accept ...byte) (byte, error) {
	if _, err := io.ReadFull(s.rw, s.buf[:1]); err != nil {
		return 0, s.fail(err)
	}
	ack := s.buf[0]
	for _, a := range accept {
		if ack == a {
			return ack, nil
		}
	}
	if ack == ackDraining {
		s.breakConn()
		return 0, ErrDraining
	}
	return 0, s.fail(fmt.Errorf("%w: unexpected ack byte %d to op %d", ErrMalformedFrame, ack, op))
}

// readAck reads the n bytes an accepting ack carries after its code.
func (s *Session) readAck(n int) ([]byte, error) {
	b := s.buf[1 : 1+n]
	if _, err := io.ReadFull(s.rw, b); err != nil {
		return nil, s.fail(err)
	}
	return b, nil
}

// evalFailed ends a run or resume whose evaluator failed: whatever broke
// it mid-protocol leaves the connection's stream position unusable, so
// the connection is marked broken and the next attempt reconnects
// instead of resyncing against garbage.
func (s *Session) evalFailed(err error) error {
	if errors.Is(err, proto.ErrPeerClosed) {
		return s.fail(err)
	}
	s.breakConn()
	return err
}

// runOnce plays a single run attempt over the current connection. On a
// pool hit the choice correction rides in the op's frame — its head,
// and its bits when it is one piece; the pieces of a bigger one follow
// from the evaluator's pool goroutine, with no wait on the server. The
// server answers with the ack, the header and the masked pairs of the
// first piece, then each later piece's as it arrives, so the run costs
// one round trip. A hit that carries an in-run fill writes it during
// the run without waiting on the server, with the fill's bytes added to
// the run's budget.
func (s *Session) runOnce(evalBits []bool) ([]bool, error) {
	req, hit, err := s.es.AppendCorrection(append(s.runReq[:0], opRun), evalBits)
	if err != nil {
		return nil, err
	}
	s.runReq = req
	fill := s.es.NextFill()
	if err := s.open(req); err != nil {
		return nil, err
	}
	s.es.SendPieces()
	if _, err := s.answer(opRun, ackGo); err != nil {
		return nil, err
	}
	if s.bb != nil {
		s.bb.raise(proto.FillWireBytes(fill, s.integrity))
	}
	if s.integrity {
		// The integrity-tier ack carries the run's resume token: the
		// handle a later opResume presents to continue this exact run.
		tok, err := s.readAck(8)
		if err != nil {
			return nil, err
		}
		s.runToken = binary.LittleEndian.Uint64(tok)
		s.hasToken = true
	}
	out, err := s.es.Run(evalBits)
	if err != nil {
		return nil, s.evalFailed(err)
	}
	if hit {
		s.stats.PoolHits++
	} else if s.pooled {
		s.stats.PoolMisses++
	}
	if fill > 0 {
		s.stats.PoolRefills++
	}
	s.hasToken = false
	return out, nil
}

// errNoResume reports a declined opResume — the server no longer holds
// the checkpoint (restart or eviction). Package-private: callers fall
// back to a full replay, the error never escapes.
var errNoResume = errors.New("server: resume declined")

// resumeOnce asks the server to continue the broken run past the tables
// the evaluator already verified, so only the remainder crosses the
// wire again.
func (s *Session) resumeOnce(got int) ([]bool, error) {
	s.buf[0] = opResume
	binary.LittleEndian.PutUint64(s.buf[1:], s.runToken)
	binary.LittleEndian.PutUint64(s.buf[9:], uint64(got))
	if err := s.open(s.buf[:17]); err != nil {
		return nil, err
	}
	ack, err := s.answer(opResume, ackResume, ackNoResume)
	if err != nil {
		return nil, err
	}
	if ack == ackNoResume {
		s.hasToken = false
		return nil, errNoResume
	}
	s.stats.Resumes++
	out, err := s.es.Resume()
	if err != nil {
		return nil, s.evalFailed(err)
	}
	s.hasToken = false
	return out, nil
}

// Close says goodbye (best effort) and closes the connection. Closing a
// cleanly closed session again is a no-op; closing a session whose
// connection already failed returns ErrSessionClosed without touching
// the dead transport.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.broken {
		s.es.Close()
		return ErrSessionClosed
	}
	s.buf[0] = opBye
	s.rw.Write(s.buf[:1])
	s.breakConn()
	s.es.Close()
	return nil
}

// breakConn marks the connection dead (reconnectable under Retry) and
// tears it down.
func (s *Session) breakConn() {
	s.broken = true
	if s.conn != nil {
		s.conn.Close()
	}
}

// fail breaks the connection and wraps err as ErrSessionClosed,
// preserving the cause for retry classification.
func (s *Session) fail(err error) error {
	s.breakConn()
	return fmt.Errorf("%w: %w", ErrSessionClosed, err)
}
