package circuit

import (
	"crypto/sha256"
	"encoding/binary"
)

// Digest returns a canonical SHA-256 identity of the circuit: every
// field that affects garbled execution (wire counts, input split,
// constants, outputs, the exact gate list) feeds the hash in a fixed
// little-endian encoding. Two parties holding structurally identical
// circuits compute the same digest, so the serving layer's session
// handshake can reject a client whose circuit merely shares a name with
// the server's before any protocol byte is exchanged.
//
// The digest is versioned by its domain-separation prefix; changing the
// encoding must change the prefix.
func Digest(c *Circuit) [32]byte {
	h := sha256.New()
	h.Write([]byte("haac/circuit/v1\n"))

	// Fixed-size header: counts and the constant-wire block.
	var hdr [45]byte
	le := binary.LittleEndian
	le.PutUint64(hdr[0:], uint64(c.NumWires()))
	le.PutUint64(hdr[8:], uint64(c.GarblerInputs))
	le.PutUint64(hdr[16:], uint64(c.EvaluatorInputs))
	if c.HasConst {
		hdr[24] = 1
	}
	le.PutUint32(hdr[25:], c.Const0)
	le.PutUint32(hdr[29:], c.Const1)
	le.PutUint32(hdr[33:], uint32(len(c.Outputs)))
	le.PutUint64(hdr[37:], uint64(len(c.Gates)))
	h.Write(hdr[:])

	// Outputs, then gates, streamed through one reused buffer. Each gate
	// encodes as op u8 | a u32 | b u32 | c u32, c being its output wire
	// NumInputs()+i; INV gates hash B as zero because execution ignores
	// it, so builders that leave B arbitrary on INV still agree.
	var buf [13 * 256]byte
	n := 0
	flushAt := len(buf) - 13
	for _, w := range c.Outputs {
		le.PutUint32(buf[n:], w)
		n += 4
		if n > flushAt {
			h.Write(buf[:n])
			n = 0
		}
	}
	nin := Wire(c.NumInputs())
	for i := range c.Gates {
		g := &c.Gates[i]
		buf[n] = byte(g.Op)
		le.PutUint32(buf[n+1:], g.A)
		b := g.B
		if g.Op == INV {
			b = 0
		}
		le.PutUint32(buf[n+5:], b)
		le.PutUint32(buf[n+9:], nin+Wire(i))
		n += 13
		if n > flushAt {
			h.Write(buf[:n])
			n = 0
		}
	}
	if n > 0 {
		h.Write(buf[:n])
	}

	var d [32]byte
	h.Sum(d[:0])
	return d
}
