package proto

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Checksummed chunk framing: the wire's integrity tier. When both peers
// negotiate it (the serving handshake carries the request in its flags
// byte), every byte after the handshake — op/ack frames, the run
// header, label blocks, OT traffic, tables, decode bits, results —
// travels inside length+CRC32C frames:
//
//	frame: len u32 LE | crc32c u32 LE | payload[len]   (len in 1..16384)
//
// The checksum covers the length field and the payload, so a flipped
// bit anywhere — including in the length itself — surfaces as a typed
// ErrIntegrity instead of silently corrupting a run or desynchronizing
// the stream. Legacy peers never request the tier and keep the
// byte-identical unframed wire.
//
// Frames are capped at maxFramePayload bytes — a whole number of tables,
// so a table write of any length splits into frames on table boundaries:
// the finer the verified granularity, the less a mid-run resume has to
// re-transfer.

// maxFramePayload bounds one frame's payload: 16 KiB, 512 tables, the
// size of a pooled slab.
const maxFramePayload = slabBytes

// frameHeaderSize is the fixed per-frame overhead: len u32 | crc u32.
const frameHeaderSize = 8

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FramedConn wraps a transport in the checksummed frame codec for both
// directions. Reads return only verified bytes; writes split into
// frames of at most maxFramePayload. All buffers are owned by the
// FramedConn and reused, so steady-state framing allocates nothing.
// Not safe for concurrent use (like the sessions built over it).
type FramedConn struct {
	rw   io.ReadWriter
	rbuf []byte // verified payload buffer
	rpos int    // next unread byte in rbuf
	rlen int    // verified bytes in rbuf
	wbuf []byte // staged header+payload for one outgoing frame
	hdr  [frameHeaderSize]byte

	framesIn, framesOut uint64
	failures            uint64
}

// NewFramedConn returns a frame codec over rw.
func NewFramedConn(rw io.ReadWriter) *FramedConn {
	return &FramedConn{
		rw:   rw,
		rbuf: make([]byte, maxFramePayload),
		wbuf: make([]byte, frameHeaderSize+maxFramePayload),
	}
}

// Reset rebinds the codec to a new transport, discarding any partially
// consumed inbound frame. The buffers persist, so a reconnecting
// session reuses one codec across redials without allocating.
func (f *FramedConn) Reset(rw io.ReadWriter) {
	f.rw = rw
	f.rpos, f.rlen = 0, 0
}

// Frames returns the verified-in/sent-out frame counts, and failures
// the number of integrity rejections this codec raised.
func (f *FramedConn) Frames() (in, out uint64) { return f.framesIn, f.framesOut }

// Failures returns the number of frames rejected for failing their
// checksum or carrying an out-of-bounds length.
func (f *FramedConn) Failures() uint64 { return f.failures }

// readFrame pulls the next frame off the transport into rbuf,
// verifying length bounds and checksum. Transport errors pass through
// unwrapped so callers classify them (peer-closed, deadline) exactly as
// on the unframed wire.
func (f *FramedConn) readFrame() error {
	if _, err := io.ReadFull(f.rw, f.hdr[:]); err != nil {
		return err
	}
	le := binary.LittleEndian
	n := int(le.Uint32(f.hdr[0:]))
	if n <= 0 || n > maxFramePayload {
		f.failures++
		return fmt.Errorf("proto: %w: frame length %d outside 1..%d", ErrIntegrity, n, maxFramePayload)
	}
	want := le.Uint32(f.hdr[4:])
	if _, err := io.ReadFull(f.rw, f.rbuf[:n]); err != nil {
		return err
	}
	crc := crc32.Update(0, castagnoli, f.hdr[0:4])
	crc = crc32.Update(crc, castagnoli, f.rbuf[:n])
	if crc != want {
		f.failures++
		return fmt.Errorf("proto: %w: frame checksum %#x, want %#x", ErrIntegrity, crc, want)
	}
	f.rpos, f.rlen = 0, n
	f.framesIn++
	return nil
}

// Read serves verified bytes, pulling the next frame when the buffer
// runs dry.
func (f *FramedConn) Read(p []byte) (int, error) {
	if f.rpos >= f.rlen {
		if err := f.readFrame(); err != nil {
			return 0, err
		}
	}
	n := copy(p, f.rbuf[f.rpos:f.rlen])
	f.rpos += n
	return n, nil
}

// Write frames p into one or more checksummed frames, one transport
// Write each.
func (f *FramedConn) Write(p []byte) (int, error) {
	written := 0
	for written < len(p) {
		n := len(p) - written
		if n > maxFramePayload {
			n = maxFramePayload
		}
		le := binary.LittleEndian
		le.PutUint32(f.wbuf[0:], uint32(n))
		crc := crc32.Update(0, castagnoli, f.wbuf[0:4])
		crc = crc32.Update(crc, castagnoli, p[written:written+n])
		le.PutUint32(f.wbuf[4:], crc)
		copy(f.wbuf[frameHeaderSize:], p[written:written+n])
		if _, err := f.rw.Write(f.wbuf[:frameHeaderSize+n]); err != nil {
			return written, err
		}
		written += n
		f.framesOut++
	}
	return written, nil
}
