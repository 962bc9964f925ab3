package server

import (
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
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
	// Jitter is the fraction of each backoff randomized away (0..1),
	// de-synchronizing a fleet of clients redialing a restarted backend.
	// Default 0.2; negative disables jitter.
	Jitter float64
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
	jitter := p.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 0 && rng != nil {
		if jitter > 1 {
			jitter = 1
		}
		d -= time.Duration(float64(d) * jitter * rng.Float64())
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
	// refill exchanges (initial fills included).
	PoolHits, PoolMisses, PoolRefills uint64
	// TableSendNanos and TableDrainWaitNanos are the garbler's
	// table-stream timing as Options.Stats holds it (see proto.Stats).
	// A session only evaluates, so they stay zero unless that Stats is
	// shared with a garbler in the same process.
	TableSendNanos, TableDrainWaitNanos uint64
}

// MetricsText renders the counters in Prometheus text exposition
// format, mirroring the server's /metrics so a client-side sidecar can
// export its half of the resilience story.
func (cs ClientStats) MetricsText() string {
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("haac_client_runs_total", "Runs completed by this session.", cs.Runs)
	counter("haac_client_run_failures_total", "Runs that failed after exhausting retries.", cs.RunFailures)
	counter("haac_client_run_retries_total", "Run attempts replayed after a retryable failure.", cs.Retries)
	counter("haac_client_reconnects_total", "Successful redial and re-handshake cycles.", cs.Reconnects)
	counter("haac_client_dial_failures_total", "Redial attempts that failed.", cs.DialFailures)
	counter("haac_client_run_resumes_total", "Broken runs resumed mid-stream instead of replayed in full.", cs.Resumes)
	counter("haac_client_integrity_failures_total", "Inbound checksummed frames rejected by the integrity tier.", cs.IntegrityFailures)
	counter("haac_client_pool_hits_total", "Runs served from the precomputed OT pool.", cs.PoolHits)
	counter("haac_client_pool_misses_total", "Pooled-tier runs that fell back to on-demand OT.", cs.PoolMisses)
	counter("haac_client_pool_refills_total", "Completed OT-pool refill exchanges.", cs.PoolRefills)
	seconds := func(name, help string, nanos uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, time.Duration(nanos).Seconds())
	}
	seconds("haac_client_table_send_seconds_total", "Seconds a garbler sharing this session's Stats spent inside Write pushing tables.", cs.TableSendNanos)
	seconds("haac_client_table_drain_wait_seconds_total", "Seconds such a garbler's runs waited, garbling done, for the last of their tables to leave.", cs.TableDrainWaitNanos)
	return b.String()
}

// Options configures the client side of a session.
type Options struct {
	// OT selects the oblivious-transfer protocol for the session's runs
	// (default ot.DH). The server honors the request.
	OT ot.Protocol
	// Workers is the evaluation engine width (see proto.Options.Workers:
	// <= 1 is sequential).
	Workers int
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
	// the session keeps a pool of about this many random-OT correlations,
	// filled synchronously at (re)connect and topped up in the background
	// between runs, so a steady-state Run's online OT is one XOR round
	// with no base OTs. A run that finds the pool short of its demand
	// falls back to the on-demand protocol for that run (a PoolMiss). A
	// server that declines the tier accepts the session unpooled —
	// check Session.Pooled for the negotiated outcome.
	PoolSize int
	// PoolRefill is the background refill chunk (correlations per
	// opRefill). Default PoolSize/4, minimum 1; larger chunks amortize
	// the refill round trips, smaller ones shorten the wire lock a
	// concurrent Run may wait on.
	PoolRefill int
	// PoolBase is the base-OT protocol seeding pool fills: ot.DH
	// (default) or ot.Insecure (needs the server's AllowInsecureOT).
	PoolBase ot.Protocol
}

// poolTarget/poolChunk resolve the pool sizing defaults; Options.PoolBase
// needs no resolver — its zero value is already ot.DH.
func (o Options) poolTarget() int { return o.PoolSize }

func (o Options) poolChunk() int {
	if o.PoolRefill > 0 {
		return o.PoolRefill
	}
	if c := o.PoolSize / 4; c > 0 {
		return c
	}
	return 1
}

// wireOT is the protocol byte the hello carries: ot.Pooled when the
// options ask for the pooled tier, the on-demand choice otherwise.
func (o Options) wireOT() ot.Protocol {
	if o.PoolSize > 0 {
		return ot.Pooled
	}
	return o.OT
}

// helloFlags encodes the option-negotiation bits of the client hello.
func helloFlags(o Options) uint8 {
	if o.Integrity {
		return helloFlagIntegrity
	}
	return 0
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
func (o Options) dial(addr string) (net.Conn, error) {
	conn, err := o.dialRaw(addr)
	if err != nil {
		return nil, err
	}
	if o.TLS != nil {
		conn = tls.Client(conn, o.TLS)
	}
	return conn, nil
}

func (o Options) dialRaw(addr string) (net.Conn, error) {
	if o.Dialer != nil {
		return o.Dialer(addr)
	}
	return net.Dial("tcp", addr)
}

// Session is a client (evaluator) session against a serving garbler.
// Run may be called any number of times; the session amortizes its
// transport buffers and evaluation engine across runs, and — when
// Options.Retry is enabled and the session was opened with Dial —
// transparently reconnects and replays runs across backend restarts.
// Not safe for concurrent use — open one session per goroutine; the
// server multiplexes them.
type Session struct {
	conn     net.Conn
	rw       io.ReadWriter
	es       *proto.EvaluatorSession
	numSlots int
	frame    [1]byte
	closed   bool // Close was called: permanently done
	broken   bool // the connection failed: reconnectable under Retry

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
	// (re)connect; poolCapped remembers a server refusal so the session
	// stops asking. wireMu serializes the wire between Run/Close and the
	// background refill goroutine — it is the only concurrency a Session
	// supports; refilling (guarded by wireMu) keeps that goroutine
	// singleton.
	wireMu     sync.Mutex
	pooled     bool
	pool       *ot.Pool
	poolCapped bool
	refilling  bool

	// Reconnect state; addr == "" means the session was built over a
	// caller-owned conn (NewSession) and cannot redial.
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
	s := &Session{
		addr:  addr,
		hello: hello{ot: opts.wireOT(), flags: helloFlags(opts), id: circuitID, digest: circuit.Digest(c)},
		opts:  opts,
		rng:   newJitterRNG(opts.Retry.Seed),
	}
	for attempt := 1; ; attempt++ {
		conn, err := s.connect()
		if err == nil {
			if s.es == nil {
				es, err2 := proto.NewEvaluatorSession(s.rw, c, proto.Options{
					OT:      opts.OT,
					Workers: opts.Workers,
					Plan:    opts.Plan,
				})
				if err2 != nil {
					conn.Close()
					return nil, err2 // a local setup error; retrying cannot help
				}
				s.es = es
			} else {
				s.es.Reset(s.rw) // a prior attempt's initial fill failed
			}
			// The pooled tier pays its base OTs here, at dial time, so
			// the first Run is already served from the pool.
			if err = s.initialFill(conn); err == nil {
				s.conn = conn
				return s, nil
			}
			conn.Close()
		}
		if attempt >= opts.Retry.attempts() || !retryable(err) {
			if s.es != nil {
				s.es.Close()
			}
			return nil, err
		}
		time.Sleep(opts.Retry.backoff(attempt, s.rng))
	}
}

// NewSession performs the session handshake over an existing connection
// and returns the ready session. On error the caller owns closing conn.
// Sessions built this way cannot redial (the caller owns the
// transport), so Options.Retry is ignored — use Dial for self-healing
// sessions.
func NewSession(conn net.Conn, circuitID string, c *circuit.Circuit, opts Options) (*Session, error) {
	if err := opts.ensurePlan(c); err != nil {
		return nil, err
	}
	s := &Session{conn: conn, opts: opts}
	rw := proto.Instrument(conn, opts.Stats)
	if err := writeHello(rw, hello{ot: opts.wireOT(), flags: helloFlags(opts), id: circuitID, digest: circuit.Digest(c)}); err != nil {
		return nil, err
	}
	numSlots, granted, pooled, err := readReply(rw)
	if err != nil {
		return nil, err
	}
	s.rw = s.wireStack(rw, granted)
	s.pooled = pooled
	s.numSlots = int(numSlots)
	es, err := proto.NewEvaluatorSession(s.rw, c, proto.Options{
		OT:      opts.OT,
		Workers: opts.Workers,
		Plan:    opts.Plan,
	})
	if err != nil {
		return nil, err
	}
	s.es = es
	if err := s.initialFill(conn); err != nil {
		es.Close()
		return nil, err
	}
	return s, nil
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

// connect dials addr and completes the handshake, leaving s.rw bound to
// the new connection. The caller installs the returned conn.
func (s *Session) connect() (net.Conn, error) {
	conn, err := s.opts.dial(s.addr)
	if err != nil {
		return nil, fmt.Errorf("server: dial: %w", err)
	}
	if d := s.opts.Retry.HandshakeTimeout; d > 0 {
		conn.SetDeadline(time.Now().Add(d))
	}
	rw := proto.Instrument(conn, s.opts.Stats)
	if err := writeHello(rw, s.hello); err != nil {
		conn.Close()
		return nil, err
	}
	numSlots, granted, pooled, err := readReply(rw)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if s.opts.Retry.HandshakeTimeout > 0 {
		conn.SetDeadline(time.Time{})
	}
	s.rw = s.wireStack(rw, granted)
	// Pool state is per-connection: the old pool's correlations derive
	// from the old connection's base OTs and die with it.
	s.pooled = pooled
	s.pool = nil
	s.poolCapped = false
	s.numSlots = int(numSlots)
	return conn, nil
}

// reconnect replaces a broken connection: redial, re-handshake (the
// server re-verifies the circuit digest) and rebind the persistent
// evaluator runner to the new transport.
func (s *Session) reconnect() error {
	if s.conn != nil {
		s.conn.Close()
	}
	conn, err := s.connect()
	if err != nil {
		s.stats.DialFailures++
		return err
	}
	s.es.Reset(s.rw) // also detaches the dead connection's pool
	if err := s.initialFill(conn); err != nil {
		s.stats.DialFailures++
		conn.Close()
		return err
	}
	s.conn = conn
	s.broken = false
	s.stats.Reconnects++
	return nil
}

// initialFill seeds the pool synchronously right after a (re)connected
// pooled handshake, bounded by the handshake deadline: the connection's
// base OTs and first fill are paid at dial time, not inside a run.
func (s *Session) initialFill(conn net.Conn) error {
	if !s.pooled || s.opts.poolTarget() <= 0 {
		return nil
	}
	if d := s.opts.Retry.HandshakeTimeout; d > 0 {
		conn.SetDeadline(time.Now().Add(d))
		defer conn.SetDeadline(time.Time{})
	}
	return s.refillOnce(s.opts.poolTarget())
}

// refillOnce runs one opRefill exchange over the current connection,
// creating the receiver pool (and paying its base OTs) on first use. A
// server refusal (ackRefuse, or a clamped grant) caps the pool and
// returns nil — the session stays usable, it just stops asking for
// more.
func (s *Session) refillOnce(n int) error {
	if n <= 0 || s.poolCapped {
		return nil
	}
	var req [6]byte
	req[0] = opRefill
	req[1] = byte(s.opts.PoolBase)
	binary.LittleEndian.PutUint32(req[2:], uint32(n))
	if _, err := s.rw.Write(req[:]); err != nil {
		return fmt.Errorf("%w: %w", ErrSessionClosed, err)
	}
	if _, err := io.ReadFull(s.rw, s.frame[:]); err != nil {
		return fmt.Errorf("%w: %w", ErrSessionClosed, err)
	}
	switch s.frame[0] {
	case ackGo:
	case ackRefuse:
		s.poolCapped = true
		return nil
	case ackDraining:
		return ErrDraining
	default:
		return fmt.Errorf("%w: unexpected refill ack byte %d", ErrMalformedFrame, s.frame[0])
	}
	var g [4]byte
	if _, err := io.ReadFull(s.rw, g[:]); err != nil {
		return fmt.Errorf("%w: %w", ErrSessionClosed, err)
	}
	granted := int(binary.LittleEndian.Uint32(g[:]))
	if granted <= 0 || granted > n {
		return fmt.Errorf("%w: refill granted %d of %d", ErrMalformedFrame, granted, n)
	}
	if granted < n {
		s.poolCapped = true // the server clamped to its cap
	}
	if s.bb != nil {
		s.bb.reset()
	}
	if s.pool == nil {
		p, err := ot.NewReceiverPool(s.rw, s.opts.PoolBase)
		if err != nil {
			return err
		}
		s.pool = p
		s.es.SetPool(p)
	}
	if err := s.pool.Fill(s.rw, granted); err != nil {
		return err
	}
	s.stats.PoolRefills++
	return nil
}

// maybeRefill starts the background top-up when the pool has fallen
// below half its target. Called with wireMu held; the goroutine it
// spawns serializes with Run on wireMu, so refills only touch the wire
// between runs.
func (s *Session) maybeRefill() {
	if !s.pooled || s.pool == nil || s.poolCapped || s.refilling || s.broken || s.closed {
		return
	}
	if s.pool.Level() >= (s.opts.poolTarget()+1)/2 {
		return
	}
	s.refilling = true
	go s.refillLoop()
}

// refillLoop tops the pool back up to target, one chunk per wireMu
// acquisition so a concurrent Run slots in between chunks. A wire error
// breaks the connection; the next Run heals it, and the reconnect's
// initial fill rebuilds the pool from scratch.
func (s *Session) refillLoop() {
	for {
		s.wireMu.Lock()
		if s.closed || s.broken || s.poolCapped || s.pool == nil || s.pool.Level() >= s.opts.poolTarget() {
			s.refilling = false
			s.wireMu.Unlock()
			return
		}
		n := s.opts.poolTarget() - s.pool.Level()
		if c := s.opts.poolChunk(); n > c {
			n = c
		}
		if d := s.opts.Retry.RunTimeout; d > 0 && s.conn != nil {
			s.conn.SetDeadline(time.Now().Add(d))
		}
		err := s.refillOnce(n)
		if s.opts.Retry.RunTimeout > 0 && s.conn != nil {
			s.conn.SetDeadline(time.Time{})
		}
		if err != nil {
			s.breakConn()
			s.refilling = false
			s.wireMu.Unlock()
			return
		}
		s.wireMu.Unlock()
	}
}

// NumSlots reports the slot-arena width of the server's plan for this
// circuit — evidence of the shared precompiled plan behind the session.
func (s *Session) NumSlots() int { return s.numSlots }

// Stats returns a snapshot of the session's self-healing counters.
func (s *Session) Stats() ClientStats {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	cs := s.stats
	if st := s.opts.Stats; st != nil {
		cs.TableSendNanos = uint64(st.TableSendNanos.Load())
		cs.TableDrainWaitNanos = uint64(st.TableDrainWaitNanos.Load())
	}
	return cs
}

// Pooled reports whether the current connection negotiated the
// precomputed-OT session tier. Like Integrity, it can change across
// reconnects when a redial lands on a backend with a different policy.
func (s *Session) Pooled() bool {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	return s.pooled
}

// PoolLevel reports the random-OT correlations currently banked for
// this session (0 when unpooled or before the first fill).
func (s *Session) PoolLevel() int {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
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
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
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
			s.maybeRefill()
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

// runOnce plays a single run attempt over the current connection.
func (s *Session) runOnce(evalBits []bool) ([]bool, error) {
	if s.bb != nil {
		s.bb.reset()
	}
	s.frame[0] = opRun
	if _, err := s.rw.Write(s.frame[:]); err != nil {
		return nil, s.fail(err)
	}
	if _, err := io.ReadFull(s.rw, s.frame[:]); err != nil {
		return nil, s.fail(err)
	}
	switch s.frame[0] {
	case ackGo:
	case ackDraining:
		s.breakConn()
		return nil, ErrDraining
	default:
		return nil, s.fail(fmt.Errorf("%w: unexpected ack byte %d", ErrMalformedFrame, s.frame[0]))
	}
	if s.integrity {
		// The integrity-tier ack carries the run's resume token: the
		// handle a later opResume presents to continue this exact run.
		var tok [8]byte
		if _, err := io.ReadFull(s.rw, tok[:]); err != nil {
			return nil, s.fail(err)
		}
		s.runToken = binary.LittleEndian.Uint64(tok[:])
		s.hasToken = true
	}
	lvl := 0
	if s.pool != nil {
		lvl = s.pool.Level()
	}
	out, err := s.es.Run(evalBits)
	if err != nil {
		// Whatever broke a run mid-protocol leaves the connection's
		// stream position unusable: mark it broken so the next attempt
		// reconnects instead of resyncing against garbage.
		if errors.Is(err, proto.ErrPeerClosed) {
			return nil, s.fail(err)
		}
		s.breakConn()
		return nil, err
	}
	if s.pooled {
		// A pooled-tier run either drew its labels from the pool (the
		// level dropped) or fell back to on-demand OT for this run.
		if s.pool != nil && s.pool.Level() < lvl {
			s.stats.PoolHits++
		} else {
			s.stats.PoolMisses++
		}
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
	if s.bb != nil {
		s.bb.reset()
	}
	var req [17]byte
	req[0] = opResume
	binary.LittleEndian.PutUint64(req[1:], s.runToken)
	binary.LittleEndian.PutUint64(req[9:], uint64(got))
	if _, err := s.rw.Write(req[:]); err != nil {
		return nil, s.fail(err)
	}
	if _, err := io.ReadFull(s.rw, s.frame[:]); err != nil {
		return nil, s.fail(err)
	}
	switch s.frame[0] {
	case ackResume:
	case ackNoResume:
		s.hasToken = false
		return nil, errNoResume
	case ackDraining:
		s.breakConn()
		return nil, ErrDraining
	default:
		return nil, s.fail(fmt.Errorf("%w: unexpected resume ack byte %d", ErrMalformedFrame, s.frame[0]))
	}
	s.stats.Resumes++
	out, err := s.es.Resume()
	if err != nil {
		if errors.Is(err, proto.ErrPeerClosed) {
			return nil, s.fail(err)
		}
		s.breakConn()
		return nil, err
	}
	s.hasToken = false
	return out, nil
}

// Close says goodbye (best effort) and closes the connection. Closing a
// cleanly closed session again is a no-op; closing a session whose
// connection already failed returns ErrSessionClosed without touching
// the dead transport.
func (s *Session) Close() error {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.broken {
		s.es.Close()
		return ErrSessionClosed
	}
	s.frame[0] = opBye
	s.rw.Write(s.frame[:])
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
