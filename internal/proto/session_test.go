package proto

import (
	"errors"
	"net"
	"testing"

	"haac/internal/circuit"
	"haac/internal/ot"
	"haac/internal/workloads"
)

// TestHeaderCodecMatchesBinary pins the manual header codec layout so
// the wire format cannot drift: encode/decode round-trip, and the known
// byte positions of the leading fields.
func TestHeaderCodecMatchesBinary(t *testing.T) {
	h := header{
		Magic: magic, Version: version, OTProto: 2,
		NGates: 0x1122334455667788, NWires: 99, NGarbler: 7, NEval: 5,
		HasConst: 1, NOutputs: 3, NTables: 0x0102030405060708,
	}
	var enc [headerSize]byte
	h.encode(enc[:])
	if got := decodeHeader(enc[:]); got != h {
		t.Fatalf("decode(encode(h)) = %+v, want %+v", got, h)
	}
	// Little-endian magic "HAAC" leads, version follows.
	if enc[0] != 0x43 || enc[3] != 0x48 || enc[4] != version {
		t.Fatalf("unexpected layout prefix % x", enc[:6])
	}
}

// sessionPair wires a GarblerSession and EvaluatorSession over an
// in-memory connection.
func sessionPair(t *testing.T, w workloads.Workload, evalPlan bool, otp ot.Protocol) (*GarblerSession, *EvaluatorSession, *circuit.Circuit) {
	t.Helper()
	c := w.Build()
	p, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	ga, ev := net.Pipe()
	t.Cleanup(func() { ga.Close(); ev.Close() })
	gs, err := NewGarblerSession(ga, Options{Plan: p, OT: otp, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eopts := Options{OT: otp}
	if evalPlan {
		eopts.Plan = p
	}
	es, err := NewEvaluatorSession(ev, c, eopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gs.Close(); es.Close() })
	return gs, es, c
}

// TestSessionRepeatedRuns: many runs over one session pair match the
// plaintext oracle, with fresh labels per run, whether the evaluator
// session is handed a plan or compiles its own at construction.
func TestSessionRepeatedRuns(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	for _, evalPlan := range []bool{true, false} {
		gs, es, c := sessionPair(t, w, evalPlan, ot.Insecure)
		for run := 0; run < 4; run++ {
			g, e := w.Inputs(int64(run))
			want, err := c.Eval(g, e)
			if err != nil {
				t.Fatal(err)
			}
			type res struct {
				out []bool
				err error
			}
			ch := make(chan res, 1)
			go func() {
				out, err := gs.Run(g)
				ch <- res{append([]bool(nil), out...), err}
			}()
			out, err := es.Run(e)
			if err != nil {
				t.Fatalf("evalPlan=%v run %d: evaluator: %v", evalPlan, run, err)
			}
			gr := <-ch
			if gr.err != nil {
				t.Fatalf("evalPlan=%v run %d: garbler: %v", evalPlan, run, gr.err)
			}
			for i := range want {
				if out[i] != want[i] || gr.out[i] != want[i] {
					t.Fatalf("evalPlan=%v run %d: output %d: eval=%v garb=%v want=%v",
						evalPlan, run, i, out[i], gr.out[i], want[i])
				}
			}
		}
	}
}

// TestSessionRejectsBadOptions: sessions demand a plan on the garbler
// side, matching circuits, and correct input widths.
func TestSessionRejectsBadOptions(t *testing.T) {
	c1 := workloads.DotProduct(2, 8).Build()
	c2 := workloads.DotProduct(3, 8).Build()
	p1, err := circuit.NewPlan(c1)
	if err != nil {
		t.Fatal(err)
	}
	ga, ev := net.Pipe()
	defer ga.Close()
	defer ev.Close()
	if _, err := NewGarblerSession(ga, Options{}); err == nil {
		t.Error("GarblerSession accepted nil plan")
	}
	if _, err := NewEvaluatorSession(ev, c2, Options{Plan: p1}); err == nil {
		t.Error("EvaluatorSession accepted a foreign plan")
	}
	gs, err := NewGarblerSession(ga, Options{Plan: p1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	if _, err := gs.Run(make([]bool, c1.GarblerInputs+1)); err == nil {
		t.Error("GarblerSession.Run accepted wrong input width")
	}
	es, err := NewEvaluatorSession(ev, c1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	if _, err := es.Run(make([]bool, c1.EvaluatorInputs+1)); err == nil {
		t.Error("EvaluatorSession.Run accepted wrong input width")
	}
}

// TestEvaluatorFailsFastOnPeerClose: an abrupt garbler disconnect
// surfaces as ErrPeerClosed — not a raw io.ReadFull error — at either
// engine width, with or without a caller-supplied plan, whether the cut
// lands before or after the header.
func TestEvaluatorFailsFastOnPeerClose(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	p, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	_, e := w.Inputs(1)
	modes := []struct {
		name string
		opts Options
	}{
		{"sequential", Options{OT: ot.Insecure}},
		{"parallel", Options{OT: ot.Insecure, Workers: 2}},
		{"planned", Options{OT: ot.Insecure, Plan: p}},
	}
	for _, m := range modes {
		for _, afterHeader := range []bool{false, true} {
			ga, ev := net.Pipe()
			go func() {
				if afterHeader {
					h := headerFor(c, Options{OT: ot.Insecure})
					var hb [headerSize]byte
					h.encode(hb[:])
					ga.Write(hb[:])
				}
				ga.Close()
			}()
			_, err := RunEvaluator(ev, c, e, m.opts)
			ev.Close()
			if err == nil {
				t.Fatalf("%s/afterHeader=%v: evaluator succeeded against a dead garbler", m.name, afterHeader)
			}
			if !errors.Is(err, ErrPeerClosed) {
				t.Fatalf("%s/afterHeader=%v: error not typed as ErrPeerClosed: %v", m.name, afterHeader, err)
			}
		}
	}
}

// evalThenVanish consumes the garbler's stream like a real evaluator
// but closes the connection instead of sending the final result, so the
// garbler's result read hits a dead peer.
type evalThenVanish struct {
	net.Conn
	writesLeft int
}

func (v *evalThenVanish) Write(p []byte) (int, error) {
	if v.writesLeft <= 0 {
		v.Conn.Close()
		return 0, net.ErrClosed
	}
	v.writesLeft--
	return v.Conn.Write(p)
}

// TestGarblerFailsFastOnPeerClose covers both garbler-side failure
// shapes: the peer dying before the stream starts (write path) and the
// peer vanishing before reporting the result (read path).
func TestGarblerFailsFastOnPeerClose(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	g, e := w.Inputs(1)

	t.Run("write-path", func(t *testing.T) {
		ga, ev := net.Pipe()
		ev.Close()
		_, err := RunGarbler(ga, c, g, Options{OT: ot.Insecure, Seed: 5})
		ga.Close()
		if err == nil {
			t.Fatal("garbler succeeded against a dead evaluator")
		}
		if !errors.Is(err, ErrPeerClosed) {
			t.Fatalf("error not typed as ErrPeerClosed: %v", err)
		}
	})

	t.Run("result-read-path", func(t *testing.T) {
		ga, ev := net.Pipe()
		// The insecure-OT evaluator writes once (its choice bytes)
		// before the final result write; allow exactly that one.
		cut := &evalThenVanish{Conn: ev, writesLeft: 1}
		done := make(chan struct{})
		go func() {
			defer close(done)
			RunEvaluator(cut, c, e, Options{OT: ot.Insecure})
			ev.Close()
		}()
		_, err := RunGarbler(ga, c, g, Options{OT: ot.Insecure, Seed: 5})
		ga.Close()
		<-done
		if err == nil {
			t.Fatal("garbler succeeded though the evaluator never reported a result")
		}
		if !errors.Is(err, ErrPeerClosed) {
			t.Fatalf("error not typed as ErrPeerClosed: %v", err)
		}
	})
}
