// Package server is the concurrent 2PC serving layer: one process plays
// the garbler for many simultaneous evaluator connections, amortizing
// precompiled execution plans, garbling runners and transport buffers
// across sessions — the paper's setup-amortization premise applied at
// the fleet level instead of per connection.
//
// A session opens with a versioned handshake framed ahead of the
// protocol's existing byte-identical wire format:
//
//	client hello:  magic u32 ("HAAS") | version u8 (4) | ot u8 | flags u8 |
//	               idLen u16 | circuit id | sha256 digest [32]
//	               | ot = Pooled: pool u32 LE (correlations asked, > 0)
//	server reply:  status u8 | ok: numSlots u32
//	                         | pooled ok: numSlots u32 | grant u32 LE
//	                           | <ot.Pool fill stream of grant correlations>
//	                         | err: msgLen u16 | message
//	per run:       op u8 (run/bye) | pool hit: 0xD5 | count u32 LE | e bits
//	               (client, one write; past one ot.DerandPiece the e bits
//	               follow the frame piece by piece)
//	               | ack u8 (go/draining, server) | integrity tier: resume
//	               token u64 LE | <proto run stream from its header on>
//	               (go: in the garbler's first flush; an in-run fill's
//	               columns go client→server ahead of the run's result)
//	resume:        op u8 (resume) | token u64 LE | got u64 LE (client)
//	               | ack u8 (resume/no-resume/draining, server)
//	               | resume: <the run's stream from table got on>
//
// Any op may be answered draining, which ends the session. On the
// integrity tier (hello flag, statusOKIntegrity) every byte after the
// reply travels in checksummed frames, and the run ack carries an
// opaque token: a client whose transfer broke redials and sends
// opResume with it and its count of verified tables, and only the rest
// is re-sent.
//
// A client that sets the hello's ot byte to ot.Pooled asks for the
// precomputed-OT session tier and, in the pool field, for a pool size:
// the server accepts with statusOKPooled (or statusOKPooledIntegrity
// when the integrity flag is also granted) and a grant of the request
// clamped to Config.MaxPoolSize. Straight after the reply, still inside
// the handshake deadline, both ends run one lockstep ot.Pool fill of
// grant correlations over DH base OTs and record the level it leaves as
// the pool's target. Runs then consume the pool when it holds enough
// correlations and fall back to an on-demand OT when it does not. Both ends decide from their
// own lockstep pool levels, so on a hit the client sends the run's
// choice correction with the op and the server answers with the ack,
// header, garbler labels and masked pairs in one flush: one round trip
// per pooled run. A correction of several pieces goes in pieces after
// the op frame, and the server answers each as it arrives, still in
// that one round trip. The header's OT byte carries the garbler's verdict;
// a client whose own decision disagrees fails the run as malformed. A
// hit that leaves the pool at least min(target/2, 16384) below its
// target tops it back up in the same run (ot.Pool.Decide, no wire
// field): the client writes the fill's columns while the tables stream
// back, and its result after them.
//
// Version 4 of the hello is this handshake; a version-1 hello (the run
// sequence where the correction waited for the header), a version-2 one
// (pools topped up by background refill ops between runs) or a
// version-3 one (the pool's first fill asked for by a refill op after
// the handshake) is refused with statusBadVersion.
//
// The digest binds the session to a structurally identical circuit on
// both sides (circuit.Digest), so a mismatched client fails typed at
// handshake instead of failing mid-protocol. Circuits resolve through a
// shared PlanCache: the first session of a circuit builds its plan
// (singleflight), later sessions share it, and per-circuit pools of
// proto.GarblerSession runners keep steady-state runs allocation-free
// under concurrency.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"haac/internal/ot"
)

const (
	helloMagic   = 0x53414148 // "HAAS" little-endian
	helloVersion = 4

	// helloFixedSize is the fixed prefix of the hello frame: magic u32 |
	// version u8 | ot u8 | flags u8 | idLen u16.
	helloFixedSize = 9

	// maxIDLen bounds circuit identifiers on the wire.
	maxIDLen = 1024

	// maxStatusMsgLen bounds the human-readable detail of a handshake
	// refusal. Every wire-controlled length is checked against its bound
	// before a byte is allocated, so a garbage frame can neither trigger
	// a huge allocation nor masquerade as a legitimate refusal.
	maxStatusMsgLen = 1024

	// helloFlagIntegrity requests the checksummed-frame wire tier in the
	// hello's flags byte. Legacy servers wrote the byte as zero and
	// ignored it on read, so an old client never requests integrity and
	// an old server silently declines it — negotiation costs no extra
	// round trip and the legacy wire stays byte-identical.
	helloFlagIntegrity = 0x01

	opRun = 1
	opBye = 2
	// opResume asks the server to resume the previous broken run from a
	// verified-chunk offset instead of replaying it; integrity tier only.
	// The frame is op u8 | token u64 | got u64 (the run token issued with
	// the ack and the count of tables the client holds verified).
	opResume = 3

	ackGo       = 0
	ackDraining = 1
	// ackResume accepts an opResume: the garbler re-emits tables from
	// the offset. ackNoResume declines it (unknown or expired token);
	// the client falls back to a full replay on the same connection.
	ackResume   = 2
	ackNoResume = 3

	statusOK             = 0
	statusUnknownCircuit = 1
	statusDigestMismatch = 2
	statusBadVersion     = 3
	statusBadRequest     = 4
	statusDraining       = 5
	statusBusy           = 6
	// statusOKIntegrity accepts the session with the integrity tier
	// granted: same 5-byte accept frame as statusOK, and everything after
	// it travels in checksummed frames.
	statusOKIntegrity = 7
	// statusOverBudget refuses a session whose circuit or run would
	// exceed the server's per-session resource budgets.
	statusOverBudget = 8
	// statusInternal refuses a session whose setup raised a contained
	// panic.
	statusInternal = 9
	// statusOKPooled accepts a session that asked for ot.Pooled in its
	// hello: a 9-byte accept frame, statusOK's and the pool's grant u32,
	// and the connect-time fill follows it. statusOKPooledIntegrity
	// additionally grants the checksummed-frame tier (the pooled analogue
	// of statusOKIntegrity).
	statusOKPooled          = 10
	statusOKPooledIntegrity = 11
)

// Typed session errors. Handshake failures map one status each;
// ErrMalformedFrame marks wire input that is structurally invalid
// (oversized length fields, unknown status bytes) — corruption or a
// peer that does not speak the protocol; ErrSessionClosed marks a
// session whose connection died (including the server force-closing
// idle sessions during shutdown) or that exhausted its retry budget.
var (
	ErrMalformedFrame = errors.New("server: malformed frame")
	ErrUnknownCircuit = errors.New("server: unknown circuit")
	ErrDigestMismatch = errors.New("server: circuit digest mismatch")
	ErrBadVersion     = errors.New("server: protocol version mismatch")
	ErrBadRequest     = errors.New("server: bad request")
	ErrDraining       = errors.New("server: draining")
	ErrBusy           = errors.New("server: session limit reached")
	ErrSessionClosed  = errors.New("server: session closed")
	// ErrOverBudget marks a session or run refused by the server's
	// per-session resource budgets (Config.MaxCircuitBytes,
	// Config.MaxRunBytes). Permanent: retrying the same circuit against
	// the same budget cannot succeed.
	ErrOverBudget = errors.New("server: over resource budget")
	// ErrInternal marks a session the server refused after containing a
	// panic in its handler. Retryable: the poison was this session's,
	// not the server's.
	ErrInternal = errors.New("server: internal error")
)

// hello is the decoded client handshake.
type hello struct {
	ot     ot.Protocol
	flags  uint8
	id     string
	digest [32]byte
	pool   uint32 // ot.Pooled only: the correlations asked for
}

// writeHello sends the client handshake frame.
func writeHello(w io.Writer, h hello) error {
	if h.id == "" || len(h.id) > maxIDLen {
		return fmt.Errorf("server: circuit id must be 1..%d bytes, got %d", maxIDLen, len(h.id))
	}
	buf := make([]byte, helloFixedSize+len(h.id)+32)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], helloMagic)
	buf[4] = helloVersion
	buf[5] = byte(h.ot)
	buf[6] = h.flags
	le.PutUint16(buf[7:], uint16(len(h.id)))
	copy(buf[helloFixedSize:], h.id)
	copy(buf[helloFixedSize+len(h.id):], h.digest[:])
	if h.ot == ot.Pooled {
		buf = le.AppendUint32(buf, h.pool)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("server: sending hello: %w", err)
	}
	return nil
}

// readHello reads and validates the client handshake. A non-zero status
// (with a nil error) means the frame was structurally readable but must
// be refused; an error means the connection itself is unusable.
func readHello(r io.Reader) (h hello, status uint8, err error) {
	var fixed [helloFixedSize]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return h, 0, fmt.Errorf("server: reading hello: %w", err)
	}
	le := binary.LittleEndian
	if le.Uint32(fixed[0:]) != helloMagic {
		return h, statusBadRequest, nil
	}
	if fixed[4] != helloVersion {
		return h, statusBadVersion, nil
	}
	h.ot = ot.Protocol(fixed[5])
	h.flags = fixed[6]
	switch h.ot {
	case ot.DH, ot.Insecure, ot.IKNP, ot.Pooled:
	default:
		return h, statusBadRequest, nil
	}
	idLen := int(le.Uint16(fixed[7:]))
	if idLen == 0 || idLen > maxIDLen {
		return h, statusBadRequest, nil
	}
	tail := 32 // the digest, then a pooled hello's pool u32
	if h.ot == ot.Pooled {
		tail += 4
	}
	rest := make([]byte, idLen+tail)
	if _, err := io.ReadFull(r, rest); err != nil {
		return h, 0, fmt.Errorf("server: reading hello: %w", err)
	}
	h.id = string(rest[:idLen])
	copy(h.digest[:], rest[idLen:])
	if h.ot == ot.Pooled {
		if h.pool = le.Uint32(rest[idLen+32:]); h.pool == 0 {
			return h, statusBadRequest, nil
		}
	}
	return h, statusOK, nil
}

// okStatus reports whether a status byte accepts the session (all OK
// variants open with the 5-byte accept frame).
func okStatus(status uint8) bool {
	switch status {
	case statusOK, statusOKIntegrity, statusOKPooled, statusOKPooledIntegrity:
		return true
	}
	return false
}

// acceptLen is the size of an accepting status's reply frame: status u8
// | numSlots u32, and on the pooled tier the pool's grant u32 after it.
func acceptLen(status uint8) int {
	if status == statusOKPooled || status == statusOKPooledIntegrity {
		return 9
	}
	return 5
}

// writeReply sends the server's handshake verdict: numSlots (and, on
// the pooled tier, the pool's grant) on success, a status and message
// otherwise.
func writeReply(w io.Writer, status uint8, numSlots, grant uint32, msg string) error {
	if okStatus(status) {
		var buf [9]byte
		buf[0] = status
		binary.LittleEndian.PutUint32(buf[1:], numSlots)
		binary.LittleEndian.PutUint32(buf[5:], grant)
		_, err := w.Write(buf[:acceptLen(status)])
		return err
	}
	if len(msg) > maxStatusMsgLen {
		msg = msg[:maxStatusMsgLen]
	}
	buf := make([]byte, 3+len(msg))
	buf[0] = status
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(msg)))
	copy(buf[3:], msg)
	_, err := w.Write(buf)
	return err
}

// acceptFrame is a decoded accepting handshake reply.
type acceptFrame struct {
	numSlots  uint32
	integrity bool   // the checksummed-frame wire tier was granted
	pooled    bool   // the precomputed-OT session tier was granted
	grant     uint32 // pooled: the correlations of the connect-time fill
}

// readReply consumes the server's handshake verdict, mapping refusal
// statuses to the package's typed errors.
func readReply(r io.Reader) (acceptFrame, error) {
	var b [9]byte
	if _, err := io.ReadFull(r, b[:1]); err != nil {
		return acceptFrame{}, fmt.Errorf("%w: reading handshake reply: %v", ErrSessionClosed, err)
	}
	if status := b[0]; okStatus(status) {
		n := acceptLen(status)
		if _, err := io.ReadFull(r, b[1:n]); err != nil {
			return acceptFrame{}, fmt.Errorf("%w: reading handshake reply: %v", ErrSessionClosed, err)
		}
		// b[5:9] stays zero unless the frame carried a grant.
		return acceptFrame{
			numSlots:  binary.LittleEndian.Uint32(b[1:5]),
			integrity: status == statusOKIntegrity || status == statusOKPooledIntegrity,
			pooled:    n == 9,
			grant:     binary.LittleEndian.Uint32(b[5:9]),
		}, nil
	}
	status := b[0]
	if _, err := io.ReadFull(r, b[1:3]); err != nil {
		return acceptFrame{}, fmt.Errorf("%w: reading handshake reply: %v", ErrSessionClosed, err)
	}
	// Bound the wire-controlled length before allocating: a corrupt or
	// hostile reply must not be able to demand an arbitrary buffer.
	msgLen := int(binary.LittleEndian.Uint16(b[1:3]))
	if msgLen > maxStatusMsgLen {
		return acceptFrame{}, fmt.Errorf("%w: refusal message length %d exceeds %d", ErrMalformedFrame, msgLen, maxStatusMsgLen)
	}
	msg := make([]byte, msgLen)
	if _, err := io.ReadFull(r, msg); err != nil {
		return acceptFrame{}, fmt.Errorf("%w: reading handshake reply: %v", ErrSessionClosed, err)
	}
	base := statusErr(status)
	if len(msg) > 0 {
		return acceptFrame{}, fmt.Errorf("%w: %s", base, msg)
	}
	return acceptFrame{}, base
}

// statusErr maps a refusal status byte to its sentinel error.
func statusErr(status uint8) error {
	switch status {
	case statusUnknownCircuit:
		return ErrUnknownCircuit
	case statusDigestMismatch:
		return ErrDigestMismatch
	case statusBadVersion:
		return ErrBadVersion
	case statusBadRequest:
		return ErrBadRequest
	case statusDraining:
		return ErrDraining
	case statusBusy:
		return ErrBusy
	case statusOverBudget:
		return ErrOverBudget
	case statusInternal:
		return ErrInternal
	}
	return fmt.Errorf("%w: handshake refused with unknown status %d", ErrMalformedFrame, status)
}

// statusMsg is the human-readable detail sent alongside a refusal.
func statusMsg(status uint8, id string) string {
	switch status {
	case statusUnknownCircuit:
		return fmt.Sprintf("no circuit registered as %q", id)
	case statusDigestMismatch:
		return fmt.Sprintf("digest does not match the registered circuit %q", id)
	case statusBadVersion:
		return fmt.Sprintf("server speaks handshake version %d", helloVersion)
	case statusDraining:
		return "server is draining"
	case statusBusy:
		return "server is at its session limit"
	case statusOverBudget:
		return fmt.Sprintf("circuit %q exceeds the server's resource budget", id)
	case statusInternal:
		return "internal error"
	}
	return ""
}
