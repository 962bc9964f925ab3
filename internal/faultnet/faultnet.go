// Package faultnet wraps net.Conn, net.Listener and dialing with
// deterministic, seeded fault injection: connection drops, read/write
// stalls, partial (chunked) writes, byte corruption and delayed FINs,
// each at a configurable rate or byte offset. It exists so the serving
// layer's recovery story — client redial/re-handshake/replay against a
// restarting fleet — is proved by the chaos tests of internal/server
// and internal/fleet instead of asserted.
//
// Faults are rolled per I/O operation from a per-connection PRNG seeded
// off Plan.Seed, so a failing schedule replays from its seed. The roll
// sequence is exact under deterministic transports (net.Pipe); over TCP
// the kernel may split reads, so schedules are statistically stable
// rather than byte-exact — tests assert on outcomes (runs healed,
// drops observed), not op indices.
//
// An injected drop surfaces as an error wrapping both ErrInjected and
// syscall.ECONNRESET, so the protocol layer classifies it exactly like
// a real peer reset (proto.ErrPeerClosed) while tests can still tell
// injected faults from genuine ones.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ErrInjected marks every fault this package injects.
var ErrInjected = errors.New("faultnet: injected fault")

// Plan configures the faults one connection injects. The zero Plan
// injects nothing (a transparent wrapper).
type Plan struct {
	// Seed seeds the per-connection PRNG. Wrappers that open many
	// connections (Listener, Dialer) derive a distinct sub-seed per
	// connection so their schedules differ but remain reproducible.
	Seed uint64

	// DropRate is the per-I/O-operation probability of severing the
	// connection: the op fails with a reset-typed error and the
	// underlying conn is closed (after FINDelay, if set), so the peer
	// observes the drop too.
	DropRate float64
	// DropAfterBytes, when > 0, deterministically severs the connection
	// on the first op after the given total of bytes (both directions)
	// has crossed it — drops aimed at a precise protocol phase, e.g.
	// mid-OT.
	DropAfterBytes int64
	// FINDelay postpones closing the underlying conn after an injected
	// drop: the injecting side fails immediately while the peer keeps
	// blocking until the delayed FIN lands, like a half-dead NAT path.
	FINDelay time.Duration

	// StallRate is the per-op probability of sleeping Stall before the
	// op proceeds (Stall defaults to 1ms when a stall fires with a zero
	// duration).
	StallRate float64
	// Stall is the injected delay per stall.
	Stall time.Duration

	// CorruptRate is the per-read probability of flipping one random
	// bit in the bytes just read.
	CorruptRate float64
	// CorruptFirst, when > 0, restricts corruption to the first N bytes
	// of the inbound stream — aim it at handshake/header parsing, where
	// corruption is detectable, without silently garbling payload bytes
	// that carry no integrity check.
	CorruptFirst int64
	// CorruptAfter, when > 0, exempts the first N bytes of the inbound
	// stream from corruption. Together with CorruptFirst it aims
	// corruption at a window [CorruptAfter, CorruptFirst) — e.g. a
	// precise chunk of a bulk transfer, past the handshake, on a wire
	// tier that can detect it. Zero keeps the historical semantics
	// (corruption from the first byte).
	CorruptAfter int64

	// MaxWriteChunk, when > 0, splits every Write into chunks of at
	// most this many bytes (with independent drop/stall rolls per
	// chunk), exercising partial-write reassembly on the peer.
	MaxWriteChunk int
}

// Stats aggregates injected faults across the connections of one
// Listener or Dialer (or one Conn). Safe for concurrent use.
type Stats struct {
	Conns       atomic.Uint64 // connections wrapped
	Drops       atomic.Uint64 // injected connection drops
	Stalls      atomic.Uint64 // injected stalls
	Corruptions atomic.Uint64 // bits flipped
}

// Conn is a fault-injecting net.Conn wrapper.
type Conn struct {
	inner net.Conn
	plan  Plan
	stats *Stats

	mu         sync.Mutex
	rng        *rand.Rand
	total      int64 // bytes crossed in both directions
	readOff    int64 // inbound stream offset, for CorruptFirst
	dropped    bool
	closeTimer *time.Timer
}

// Wrap returns conn with plan's faults injected. A nil stats collector
// allocates a private one (readable via Conn.Stats).
func Wrap(conn net.Conn, plan Plan, stats *Stats) *Conn {
	if stats == nil {
		stats = &Stats{}
	}
	stats.Conns.Add(1)
	return &Conn{
		inner: conn,
		plan:  plan,
		stats: stats,
		rng:   rand.New(rand.NewSource(int64(plan.Seed))),
	}
}

// Stats returns the connection's fault counters (shared with the
// wrapping Listener/Dialer, when there is one).
func (c *Conn) Stats() *Stats { return c.stats }

// errDropped is the error every op returns once the connection has been
// injected-dropped; it matches both ErrInjected and ECONNRESET.
func errDropped() error {
	return fmt.Errorf("%w: %w", ErrInjected, syscall.ECONNRESET)
}

// roll decides the faults for one op under the mutex: whether to stall
// and whether to drop. It never performs I/O.
func (c *Conn) roll() (stall time.Duration, drop bool, dead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dropped {
		return 0, false, true
	}
	if c.plan.StallRate > 0 && c.rng.Float64() < c.plan.StallRate {
		stall = c.plan.Stall
		if stall == 0 {
			stall = time.Millisecond
		}
		c.stats.Stalls.Add(1)
	}
	if c.plan.DropAfterBytes > 0 && c.total >= c.plan.DropAfterBytes {
		drop = true
	}
	if !drop && c.plan.DropRate > 0 && c.rng.Float64() < c.plan.DropRate {
		drop = true
	}
	if drop {
		c.dropped = true
	}
	return stall, drop, false
}

// drop severs the connection: the underlying conn closes now or after
// the plan's delayed FIN, and the caller's op fails reset-typed.
func (c *Conn) drop() error {
	c.stats.Drops.Add(1)
	if d := c.plan.FINDelay; d > 0 {
		c.mu.Lock()
		c.closeTimer = time.AfterFunc(d, func() { c.inner.Close() })
		c.mu.Unlock()
	} else {
		c.inner.Close()
	}
	return errDropped()
}

// Read rolls the fault plan before delegating: it may stall, sever the
// connection, or flip one bit of the bytes it returns (within the
// plan's corruption window) — exactly one bit per corrupted read, so
// tests can attribute a failure to a single wire fault.
func (c *Conn) Read(p []byte) (int, error) {
	stall, drop, dead := c.roll()
	if dead {
		return 0, errDropped()
	}
	if stall > 0 {
		time.Sleep(stall)
	}
	if drop {
		return 0, c.drop()
	}
	n, err := c.inner.Read(p)
	c.mu.Lock()
	c.total += int64(n)
	start := c.readOff
	c.readOff += int64(n)
	corrupt := n > 0 && c.plan.CorruptRate > 0 &&
		(c.plan.CorruptFirst <= 0 || start < c.plan.CorruptFirst) &&
		(c.plan.CorruptAfter <= 0 || c.readOff > c.plan.CorruptAfter) &&
		c.rng.Float64() < c.plan.CorruptRate
	if corrupt {
		// Clamp the victim to the slice of this read that overlaps the
		// [CorruptAfter, CorruptFirst) window.
		lo := 0
		if c.plan.CorruptAfter > 0 && c.plan.CorruptAfter > start {
			lo = int(c.plan.CorruptAfter - start)
		}
		hi := n
		if c.plan.CorruptFirst > 0 && c.plan.CorruptFirst-start < int64(n) {
			hi = int(c.plan.CorruptFirst - start)
		}
		if hi > lo { // empty only under a misconfigured CorruptAfter >= CorruptFirst
			victim := lo + c.rng.Intn(hi-lo)
			p[victim] ^= 1 << uint(c.rng.Intn(8))
			c.stats.Corruptions.Add(1)
		}
	}
	c.mu.Unlock()
	return n, err
}

// Write splits p into MaxWriteChunk slices and rolls the fault plan
// before each, so a drop can land mid-frame with a short write count —
// the partial-delivery case parsers must survive.
func (c *Conn) Write(p []byte) (int, error) {
	chunk := c.plan.MaxWriteChunk
	if chunk <= 0 {
		chunk = len(p)
	}
	written := 0
	for written < len(p) || (len(p) == 0 && written == 0) {
		stall, drop, dead := c.roll()
		if dead {
			return written, errDropped()
		}
		if stall > 0 {
			time.Sleep(stall)
		}
		if drop {
			return written, c.drop()
		}
		end := written + chunk
		if end > len(p) {
			end = len(p)
		}
		n, err := c.inner.Write(p[written:end])
		written += n
		c.mu.Lock()
		c.total += int64(n)
		c.mu.Unlock()
		if err != nil {
			return written, err
		}
		if len(p) == 0 {
			break
		}
	}
	return written, nil
}

// Close cancels any pending delayed-FIN timer and closes the inner
// connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closeTimer != nil {
		c.closeTimer.Stop()
	}
	c.mu.Unlock()
	return c.inner.Close()
}

// LocalAddr delegates to the wrapped connection.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr delegates to the wrapped connection.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline delegates to the wrapped connection; plan stalls sleep
// through deadlines rather than honoring them, like a kernel buffer
// would.
func (c *Conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline delegates to the wrapped connection.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline delegates to the wrapped connection.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

// subSeed derives the seed of the n-th connection of a wrapper from the
// plan seed (splitmix64 step, so consecutive n land far apart).
func subSeed(seed, n uint64) uint64 {
	z := seed + (n+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Listener wraps a net.Listener so every accepted connection injects
// the plan's faults with a per-connection derived seed.
type Listener struct {
	net.Listener
	plan  Plan
	stats Stats
	n     atomic.Uint64
}

// WrapListener returns ln with fault injection on every accepted conn.
func WrapListener(ln net.Listener, plan Plan) *Listener {
	return &Listener{Listener: ln, plan: plan}
}

// Accept waits for the next connection and wraps it.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	p := l.plan
	p.Seed = subSeed(l.plan.Seed, l.n.Add(1))
	return Wrap(conn, p, &l.stats), nil
}

// Stats returns the listener's aggregate fault counters.
func (l *Listener) Stats() *Stats { return &l.stats }

// Dialer dials TCP connections that inject the plan's faults, each with
// a per-connection derived seed. The zero value is unusable; fill Plan.
type Dialer struct {
	Plan Plan
	// DropOnce limits deterministic DropAfterBytes injection to the
	// first connection that trips it: without this, a reconnecting
	// client would hit the same byte offset on every redial and never
	// heal.
	DropOnce bool
	// CorruptOnce limits corruption to the first connection: later
	// (reconnected) connections carry a clean plan, so a test can prove
	// one corrupted transfer heals rather than corrupting every retry.
	CorruptOnce bool

	stats     Stats
	n         atomic.Uint64
	droppedMu sync.Mutex
	dropped   bool
	corrupted bool
}

// Dial opens a fault-injected TCP connection to addr.
func (d *Dialer) Dial(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := d.Plan
	p.Seed = subSeed(d.Plan.Seed, d.n.Add(1))
	d.droppedMu.Lock()
	if d.DropOnce && p.DropAfterBytes > 0 {
		if d.dropped {
			p.DropAfterBytes = 0
		} else {
			d.dropped = true
		}
	}
	if d.CorruptOnce && p.CorruptRate > 0 {
		if d.corrupted {
			p.CorruptRate = 0
		} else {
			d.corrupted = true
		}
	}
	d.droppedMu.Unlock()
	return Wrap(conn, p, &d.stats), nil
}

// Stats returns the dialer's aggregate fault counters.
func (d *Dialer) Stats() *Stats { return &d.stats }
