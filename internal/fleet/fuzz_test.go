package fleet

import (
	"bytes"
	"testing"

	"haac/internal/server"
)

// FuzzFleetHello hammers the two parsing surfaces the proxy exposes to
// untrusted input: the client hello read by the router and the probe
// verdict. Invariants, for arbitrary bytes:
//
//   - ReadHelloFrame never panics, and the Raw bytes it captured are
//     exactly the prefix of the input it consumed — the proxy forwards
//     what it read, nothing more.
//   - An accepted hello re-parses from its own Raw to identical fields
//     (round-trip: relaying the captured bytes shows the backend the
//     same session the proxy routed).
//   - Routing over the parsed digest is deterministic and total: the
//     rendezvous ranking is a permutation of the backend set and two
//     rankings of the same digest agree.
func FuzzFleetHello(f *testing.F) {
	digest := bytes.Repeat([]byte{0xab}, 32)
	valid := append([]byte("HAAS\x04\x01\x00\x02\x00ab"), digest...)
	f.Add(valid)
	f.Add([]byte("HAAS\x04\x01\x00\x00\x00"))                      // zero-length id: refused
	f.Add([]byte("HAAS\x01\x01\x00\x02\x00ab"))                    // retired version 1: refused
	f.Add([]byte("SAAH\x04\x01\x00\x02\x00ab"))                    // bad magic
	f.Add(valid[:12])                                              // truncated mid-id
	f.Add(append([]byte{}, valid[:len(valid)-7]...))               // truncated mid-digest
	f.Add([]byte("HAAS\x02\x01\x00\x02\x00ab"))                    // retired version 2: refused
	f.Add(append([]byte("HAAS\x03\x01\x00\x02\x00ab"), digest...)) // retired version 3: refused
	// A pooled hello (ot byte 3) asking for 65536 correlations: the pool
	// field is part of the relayed Raw.
	f.Add(append(append([]byte("HAAS\x04\x03\x00\x02\x00ab"), digest...), 0, 0, 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		hf, err := server.ReadHelloFrame(bytes.NewReader(data))
		if !bytes.HasPrefix(data, hf.Raw) {
			t.Fatalf("Raw %x is not a prefix of the input %x", hf.Raw, data)
		}
		if err != nil {
			return
		}
		hf2, err2 := server.ReadHelloFrame(bytes.NewReader(hf.Raw))
		if err2 != nil {
			t.Fatalf("accepted hello failed to re-parse from its Raw bytes: %v", err2)
		}
		if hf2.ID != hf.ID || hf2.OT != hf.OT || hf2.Digest != hf.Digest {
			t.Fatalf("round-trip mismatch: %+v vs %+v", hf, hf2)
		}
		if !bytes.Equal(hf2.Raw, hf.Raw) {
			t.Fatalf("round-trip changed the raw encoding: %x vs %x", hf.Raw, hf2.Raw)
		}
		addrs := []string{"10.0.0.1:9100", "10.0.0.2:9100", "10.0.0.3:9100"}
		r1 := rankAddrs(hf.Digest, addrs)
		r2 := rankAddrs(hf.Digest, addrs)
		if len(r1) != len(addrs) {
			t.Fatalf("ranking dropped backends: %v", r1)
		}
		seen := map[string]bool{}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("routing not deterministic: %v vs %v", r1, r2)
			}
			seen[r1[i]] = true
		}
		if len(seen) != len(addrs) {
			t.Fatalf("ranking is not a permutation: %v", r1)
		}
	})
}
