package proto

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net"
	"testing"

	"haac/internal/circuit"
	"haac/internal/ot"
	"haac/internal/workloads"
)

// teeConn copies everything written through it into w — the garbler's
// outbound byte stream.
type teeConn struct {
	net.Conn
	w io.Writer
}

func (c teeConn) Write(p []byte) (int, error) {
	c.w.Write(p)
	return c.Conn.Write(p)
}

// aesTranscriptSHA256 is the SHA-256 of the garbler→evaluator byte
// stream of one AES-128 run (garbler inputs from Inputs(7), label seed
// 7, ot.Insecure, re-keyed hasher). It was computed at the commit
// before the engines were unified, with that commit's sequential dense
// gate-by-gate path (RunGarbler with Workers 0, no plan); its offline
// and pipelined paths produced the same digest. Any change here is a
// wire-format break.
const aesTranscriptSHA256 = "9140e957ed4a08ec5d866327772bde696b6b6fad817c55e49dba635f31b78ffd"

// TestGarblerTranscriptPinned asserts the one-run wrapper and a session
// both emit exactly the pinned stream, at either engine width.
func TestGarblerTranscriptPinned(t *testing.T) {
	w := workloads.AES128()
	plan, err := circuit.NewPlan(w.Build())
	if err != nil {
		t.Fatal(err)
	}
	g, e := w.Inputs(7)
	for _, ep := range endpoints {
		ga, ev := net.Pipe()
		sum := sha256.New()
		errc := make(chan error, 1)
		go func() {
			_, err := ep.garble(teeConn{ga, sum}, plan, g, ot.Insecure, 7)
			errc <- err
		}()
		if _, err := RunEvaluator(ev, plan.Circuit, e, Options{Plan: plan}); err != nil {
			t.Fatalf("%s: evaluator: %v", ep, err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("%s: garbler: %v", ep, err)
		}
		ga.Close()
		ev.Close()
		if got := hex.EncodeToString(sum.Sum(nil)); got != aesTranscriptSHA256 {
			t.Errorf("%s: garbler stream digest %s, want %s", ep, got, aesTranscriptSHA256)
		}
	}
}
