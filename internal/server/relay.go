package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"haac/internal/ot"
)

// Relay helpers: the fleet front proxy terminates nothing — it reads
// each handshake frame once to decide where a session belongs, then
// forwards the exact bytes it consumed. These exported readers return
// both the decoded fields (for routing and failure classification) and
// the raw encoding (for forwarding), so the proxy never re-encodes a
// frame and the backend sees the client's bytes verbatim.

// HelloFrame is one decoded client hello together with its raw wire
// encoding, ready to be relayed to a backend.
type HelloFrame struct {
	// Raw is the hello exactly as it appeared on the wire.
	Raw []byte
	// OT is the requested oblivious-transfer protocol.
	OT ot.Protocol
	// ID is the circuit identifier.
	ID string
	// Digest is the circuit digest — the routing key of a digest-sharded
	// proxy.
	Digest [32]byte
}

// ReadHelloFrame reads and validates one client hello from r. A
// structurally refused hello (bad magic, unknown version, bad OT,
// oversized id, a pooled hello asking for no pool) returns ErrBadRequest or ErrBadVersion — the connection
// is still writable, so the caller can answer with WriteRefusal. A
// short or dead read returns the underlying transport error.
func ReadHelloFrame(r io.Reader) (HelloFrame, error) {
	var hf HelloFrame
	var raw bytes.Buffer
	h, status, err := readHello(io.TeeReader(r, &raw))
	hf.Raw = raw.Bytes()
	if err != nil {
		return hf, err
	}
	switch status {
	case statusOK:
	case statusBadVersion:
		return hf, ErrBadVersion
	default:
		return hf, ErrBadRequest
	}
	hf.OT, hf.ID, hf.Digest = h.ot, h.id, h.digest
	return hf, nil
}

// ReplyFrame is one decoded server handshake reply together with its
// raw wire encoding, ready to be relayed to the client.
type ReplyFrame struct {
	// Raw is the reply exactly as it appeared on the wire.
	Raw []byte
	// NumSlots is the plan width on an accepting reply.
	NumSlots uint32
	// Integrity reports whether the backend granted the checksummed
	// frame tier. A relay forwards the raw reply verbatim, so the grant
	// — and every checksummed frame after it — traverses the proxy as
	// opaque spliced bytes.
	Integrity bool
	// Pooled reports whether the backend granted the precomputed-OT
	// session tier. Like integrity, the tier is end-to-end: the pool's
	// grant rides in Raw, and the connect-time fill that follows the
	// reply, in-run fills and derandomized transfers traverse a relay as
	// spliced bytes.
	Pooled bool
	// Err is the typed refusal (ErrBusy, ErrDraining, ErrUnknownCircuit,
	// ErrDigestMismatch, ErrBadVersion, ErrBadRequest, ErrOverBudget,
	// ErrInternal) on a refusing reply, nil on an accepting one.
	Err error
}

// OK reports whether the backend accepted the session.
func (rf ReplyFrame) OK() bool { return rf.Err == nil }

// ReadReplyFrame reads one server handshake reply from r. Refusals are
// complete frames — they return with ReplyFrame.Err set and a nil
// error, because the refusal itself must be relayed. A reply that never
// arrived or was structurally invalid returns a non-nil error: there is
// no frame to forward, the backend connection is unusable.
func ReadReplyFrame(r io.Reader) (ReplyFrame, error) {
	var rf ReplyFrame
	var raw bytes.Buffer
	a, err := readReply(io.TeeReader(r, &raw))
	rf.Raw = raw.Bytes()
	if err == nil {
		rf.NumSlots, rf.Integrity, rf.Pooled = a.numSlots, a.integrity, a.pooled
		return rf, nil
	}
	for _, refusal := range []error{
		ErrUnknownCircuit, ErrDigestMismatch, ErrBadVersion,
		ErrBadRequest, ErrDraining, ErrBusy, ErrOverBudget, ErrInternal,
	} {
		if errors.Is(err, refusal) {
			rf.Err = err
			return rf, nil
		}
	}
	return rf, err
}

// WriteRefusal sends the handshake refusal matching cause — a proxy
// refusing on the backends' behalf speaks the same frame a backend
// would. Unrecognized causes refuse as bad requests. msg overrides the
// status's default human-readable detail when non-empty.
func WriteRefusal(w io.Writer, cause error, msg string) error {
	status := uint8(statusBadRequest)
	for _, m := range []struct {
		err    error
		status uint8
	}{
		{ErrUnknownCircuit, statusUnknownCircuit},
		{ErrDigestMismatch, statusDigestMismatch},
		{ErrBadVersion, statusBadVersion},
		{ErrDraining, statusDraining},
		{ErrBusy, statusBusy},
		{ErrOverBudget, statusOverBudget},
		{ErrInternal, statusInternal},
	} {
		if errors.Is(cause, m.err) {
			status = m.status
			break
		}
	}
	if msg == "" {
		msg = statusMsg(status, "")
		if msg == "" {
			msg = fmt.Sprintf("refused: %v", cause)
		}
	}
	return writeReply(w, status, 0, 0, msg)
}
