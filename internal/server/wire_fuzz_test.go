package server

import (
	"bytes"
	"errors"
	"testing"

	"haac/internal/ot"
)

// Fuzz targets for the handshake codecs: arbitrary bytes must never
// panic, never demand an allocation beyond the codec's declared bounds,
// and fail only with the package's typed errors. CI runs each target
// for a short wall-clock budget (see .github/workflows/ci.yml); the
// committed corpora under testdata/fuzz pin the interesting shapes.

// FuzzReadHello: the server-side hello reader against garbage, plus the
// write/read roundtrip for every structurally valid frame it accepts:
// a pooled hello's pool field survives it, and any other hello carries
// no pool field.
func FuzzReadHello(f *testing.F) {
	// Structurally valid hellos, plain and pooled.
	var good, pooled bytes.Buffer
	if err := writeHello(&good, hello{ot: ot.DH, id: "add16", digest: [32]byte{1, 2, 3}}); err != nil {
		f.Fatal(err)
	}
	if err := writeHello(&pooled, hello{ot: ot.Pooled, id: "add16", digest: [32]byte{1, 2, 3}, pool: 4096}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(pooled.Bytes())
	f.Add(pooled.Bytes()[:pooled.Len()-2])                                  // pool field cut short
	f.Add(append(bytes.Clone(pooled.Bytes()[:pooled.Len()-4]), 0, 0, 0, 0)) // a pool of 0: refused
	f.Add([]byte{})                                                         // empty
	f.Add(good.Bytes()[:helloFixedSize])                                    // truncated after the fixed prefix
	f.Add([]byte("HAASgarbagegarbagegarbage"))                              // right magic, wrong everything
	f.Add(bytes.Repeat([]byte{0xff}, 64))                                   // idLen far over maxIDLen
	f.Add(append([]byte("XAAS"), good.Bytes()[4:]...))                      // wrong magic

	f.Fuzz(func(t *testing.T, data []byte) {
		h, status, err := readHello(bytes.NewReader(data))
		if err != nil {
			return // connection-level failure (truncation); no frame to validate
		}
		if status != statusOK {
			return // structurally readable but refused
		}
		if len(h.id) == 0 || len(h.id) > maxIDLen {
			t.Fatalf("accepted hello with id length %d outside 1..%d", len(h.id), maxIDLen)
		}
		switch h.ot {
		case ot.DH, ot.Insecure, ot.IKNP:
			if h.pool != 0 {
				t.Fatalf("accepted %v hello with a pool of %d", h.ot, h.pool)
			}
		case ot.Pooled:
			if h.pool == 0 {
				t.Fatal("accepted a pooled hello asking for no pool")
			}
		default:
			t.Fatalf("accepted hello with unknown OT protocol %d", h.ot)
		}
		// Roundtrip: what was accepted re-encodes to a frame that reads
		// back identically.
		var buf bytes.Buffer
		if err := writeHello(&buf, h); err != nil {
			t.Fatalf("re-encoding accepted hello: %v", err)
		}
		size := helloFixedSize + len(h.id) + 32
		if h.ot == ot.Pooled {
			size += 4
		}
		if buf.Len() != size || !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("re-encoded hello %x is not the %d bytes read from %x", buf.Bytes(), size, data)
		}
		h2, status2, err := readHello(bytes.NewReader(buf.Bytes()))
		if err != nil || status2 != statusOK {
			t.Fatalf("re-reading re-encoded hello: status %d, err %v", status2, err)
		}
		if h2 != h {
			t.Fatalf("hello roundtrip drifted: %+v vs %+v", h, h2)
		}
	})
}

// FuzzReadStatus: the client-side handshake-reply reader. Garbage must
// fail with a typed error — never a raw io error dressed as success and
// never an allocation driven by an unchecked wire length. An accept
// carries a pool grant exactly when it grants the pooled tier, and
// re-encodes to the bytes it was read from.
func FuzzReadStatus(f *testing.F) {
	var ok bytes.Buffer
	writeReply(&ok, statusOK, 96, 0, "")
	f.Add(ok.Bytes())
	var pooled bytes.Buffer
	writeReply(&pooled, statusOKPooled, 96, 4096, "")
	f.Add(pooled.Bytes())
	f.Add(pooled.Bytes()[:7]) // the grant cut short
	var pooledIntegrity bytes.Buffer
	writeReply(&pooledIntegrity, statusOKPooledIntegrity, 96, 1, "")
	f.Add(pooledIntegrity.Bytes())
	var refused bytes.Buffer
	writeReply(&refused, statusDraining, 0, 0, "server is draining")
	f.Add(refused.Bytes())
	f.Add([]byte{})
	f.Add([]byte{statusOK})                            // truncated numSlots
	f.Add([]byte{statusOKPooledIntegrity})             // truncated numSlots, pooled tier
	f.Add([]byte{statusBusy, 0xff, 0xff})              // msgLen 65535, no body
	f.Add([]byte{200, 0x04, 0x00, 'o', 'o', 'p', 's'}) // unknown status

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := readReply(bytes.NewReader(data))
		if err == nil {
			var buf bytes.Buffer
			writeReply(&buf, data[0], a.numSlots, a.grant, "")
			if !bytes.HasPrefix(data, buf.Bytes()) || a.pooled != (buf.Len() == 9) || !a.pooled && a.grant != 0 {
				t.Fatalf("accept %+v re-encodes to %x, not a prefix of %x", a, buf.Bytes(), data)
			}
			return
		}
		for _, typed := range []error{
			ErrSessionClosed, ErrMalformedFrame, ErrUnknownCircuit,
			ErrDigestMismatch, ErrBadVersion, ErrBadRequest, ErrDraining, ErrBusy,
			ErrOverBudget, ErrInternal,
		} {
			if errors.Is(err, typed) {
				return
			}
		}
		t.Fatalf("readReply returned an untyped error: %v", err)
	})
}
