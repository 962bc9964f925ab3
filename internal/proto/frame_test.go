package proto

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"haac/internal/ot"
)

// TestFrameRoundtrip: bytes written through the codec come back
// verified and identical across payload sizes that exercise the
// split/merge boundaries.
func TestFrameRoundtrip(t *testing.T) {
	for _, size := range []int{1, 7, 100, maxFramePayload - 1, maxFramePayload, maxFramePayload + 1, 3*maxFramePayload + 5} {
		var wire bytes.Buffer
		w := NewFramedConn(&wire)
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i * 31)
		}
		if n, err := w.Write(msg); err != nil || n != size {
			t.Fatalf("size %d: Write = %d, %v", size, n, err)
		}
		wantFrames := (size + maxFramePayload - 1) / maxFramePayload
		if got, want := wire.Len(), size+wantFrames*frameHeaderSize; got != want {
			t.Errorf("size %d: %d bytes on the wire, want %d (%d frames)", size, got, want, wantFrames)
		}
		r := NewFramedConn(&wire)
		got := make([]byte, size)
		if _, err := io.ReadFull(r, got); err != nil {
			t.Fatalf("size %d: ReadFull: %v", size, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("size %d: payload drifted through the codec", size)
		}
		if wire.Len() != 0 {
			t.Errorf("size %d: %d bytes left unread on the wire", size, wire.Len())
		}
	}
}

// TestFrameCorruptionDetected: flipping any single bit of an encoded
// frame — length, checksum or payload — surfaces ErrIntegrity, never a
// silently wrong payload.
func TestFrameCorruptionDetected(t *testing.T) {
	var wire bytes.Buffer
	w := NewFramedConn(&wire)
	msg := []byte("the tables must arrive exactly as garbled")
	if _, err := w.Write(msg); err != nil {
		t.Fatal(err)
	}
	clean := append([]byte(nil), wire.Bytes()...)
	for pos := range clean {
		for bit := 0; bit < 8; bit++ {
			dirty := append([]byte(nil), clean...)
			dirty[pos] ^= 1 << bit
			r := NewFramedConn(bytes.NewBuffer(dirty))
			got := make([]byte, len(msg))
			_, err := io.ReadFull(r, got)
			if err == nil {
				t.Fatalf("flip byte %d bit %d: read succeeded on a corrupted frame", pos, bit)
			}
			if !errors.Is(err, ErrIntegrity) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("flip byte %d bit %d: err = %v, want ErrIntegrity or truncation", pos, bit, err)
			}
		}
	}
	// Truncation is a transport error, not an integrity failure.
	r := NewFramedConn(bytes.NewBuffer(clean[:len(clean)-3]))
	if _, err := io.ReadFull(r, make([]byte, len(msg))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestFrameLengthBounds: a length field outside 1..maxFramePayload is
// rejected before any allocation or payload read.
func TestFrameLengthBounds(t *testing.T) {
	for _, n := range []uint32{0, maxFramePayload + 1, 1 << 30} {
		hdr := make([]byte, frameHeaderSize)
		hdr[0] = byte(n)
		hdr[1] = byte(n >> 8)
		hdr[2] = byte(n >> 16)
		hdr[3] = byte(n >> 24)
		r := NewFramedConn(bytes.NewBuffer(hdr))
		_, err := r.Read(make([]byte, 1))
		if !errors.Is(err, ErrIntegrity) {
			t.Errorf("length %d: err = %v, want ErrIntegrity", n, err)
		}
	}
}

// TestFrameReset: Reset discards a partially consumed inbound frame and
// rebinds to a new transport, as a reconnecting session requires.
func TestFrameReset(t *testing.T) {
	var first bytes.Buffer
	w := NewFramedConn(&first)
	if _, err := w.Write([]byte("stale stale stale")); err != nil {
		t.Fatal(err)
	}
	fc := NewFramedConn(&first)
	if _, err := fc.Read(make([]byte, 5)); err != nil {
		t.Fatal(err)
	}

	var second bytes.Buffer
	w2 := NewFramedConn(&second)
	if _, err := w2.Write([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	fc.Reset(&second)
	got := make([]byte, 5)
	if _, err := io.ReadFull(fc, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "fresh" {
		t.Fatalf("after Reset read %q, want %q (stale buffered bytes leaked)", got, "fresh")
	}
}

// TestFrameOverheadBound pins the codec's wire overhead: 8 bytes per
// 16 KiB slab is ~0.05%, far inside the <2% budget the integrity
// experiment asserts end to end.
func TestFrameOverheadBound(t *testing.T) {
	var wire bytes.Buffer
	w := NewFramedConn(&wire)
	payload := make([]byte, 64*maxFramePayload)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	overhead := float64(wire.Len()-len(payload)) / float64(len(payload))
	if overhead >= 0.02 {
		t.Fatalf("framing overhead %.4f%% breaches the 2%% budget", overhead*100)
	}
}

// TestFillWireBytesMatchesFramedFill pins FillWireBytes to what a fill
// writes through a FramedConn and, unframed, to ot.FillBytes, for sizes
// on and off the byte, frame and chunk boundaries.
func TestFillWireBytesMatchesFramedFill(t *testing.T) {
	ga, ev := net.Pipe()
	defer ga.Close()
	defer ev.Close()
	var sp *ot.Pool
	errc := make(chan error, 1)
	go func() {
		var err error
		sp, err = ot.NewSenderPool(ga, ot.Insecure)
		errc <- err
	}()
	rp, err := ot.NewReceiverPool(ev, ot.Insecure)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	var wrote countingWriter
	send := NewFramedConn(ga)
	recv := NewFramedConn(struct {
		io.Reader
		io.Writer
	}{ev, io.MultiWriter(ev, &wrote)})
	for _, n := range []int{1, 13, 128, 1024, 1025, 1 << 14, 1<<14 + 3, 2<<14 + 64} {
		wrote.n = 0
		go func() { errc <- sp.Fill(send, n) }()
		if err := rp.Fill(recv, n); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if got := FillWireBytes(n, true); got != wrote.n {
			t.Errorf("FillWireBytes(%d, framed) = %d, the framed fill wrote %d", n, got, wrote.n)
		}
		if got, want := FillWireBytes(n, false), ot.FillBytes(n); got != want {
			t.Errorf("FillWireBytes(%d, unframed) = %d, want ot.FillBytes %d", n, got, want)
		}
	}
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
