package proto

import (
	"fmt"
	"io"
	"net"
	"testing"

	"haac/internal/circuit"
	"haac/internal/ot"
	"haac/internal/workloads"
)

// endpoint is one way a party can drive its role: through the one-run
// wrapper (which compiles its own plan) or through a session over a
// shared plan. Both run the one, sequential plan engine, the "x1" in
// their names; its byte identity with the reference is pinned in
// internal/gc.
type endpoint struct {
	session bool
}

func (ep endpoint) String() string {
	if ep.session {
		return "session-x1"
	}
	return "oneshot-x1"
}

var endpoints = []endpoint{{false}, {true}}

func (ep endpoint) garble(conn io.ReadWriter, plan *circuit.Plan, g []bool, otp ot.Protocol, seed uint64) ([]bool, error) {
	opts := Options{OT: otp, Seed: seed}
	if !ep.session {
		return RunGarbler(conn, plan.Circuit, g, opts)
	}
	opts.Plan = plan
	s, err := NewGarblerSession(conn, opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Run(g)
}

func (ep endpoint) evaluate(conn io.ReadWriter, plan *circuit.Plan, e []bool, otp ot.Protocol) ([]bool, error) {
	opts := Options{OT: otp}
	if !ep.session {
		return RunEvaluator(conn, plan.Circuit, e, opts)
	}
	opts.Plan = plan
	s, err := NewEvaluatorSession(conn, plan.Circuit, opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Run(e)
}

// connPair returns the two ends of an in-memory pipe or of a loopback
// TCP connection.
func connPair(t *testing.T, tcp bool) (net.Conn, net.Conn) {
	t.Helper()
	if !tcp {
		ga, ev := net.Pipe()
		t.Cleanup(func() { ga.Close(); ev.Close() })
		return ga, ev
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, _ := ln.Accept()
		accepted <- conn
	}()
	ev, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ga := <-accepted
	if ga == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { ga.Close(); ev.Close() })
	return ga, ev
}

// TestInteropMatrix is the one-engine interop contract: the wire bytes
// do not depend on the entry point, so a one-shot or session garbler
// pairs with either evaluator, over an in-memory pipe and over TCP,
// under each OT protocol, and both parties see the reference output.
func TestInteropMatrix(t *testing.T) {
	w := workloads.DotProduct(4, 16)
	c := w.Build()
	plan, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	g, e := w.Inputs(8)
	want := w.Reference(g, e)
	ots := []struct {
		name string
		p    ot.Protocol
	}{{"dh", ot.DH}, {"iknp", ot.IKNP}, {"insecure", ot.Insecure}}
	for _, tcp := range []bool{false, true} {
		for _, otp := range ots {
			for _, gep := range endpoints {
				for _, eep := range endpoints {
					name := fmt.Sprintf("tcp=%v/%s/%s->%s", tcp, otp.name, gep, eep)
					t.Run(name, func(t *testing.T) {
						ga, ev := connPair(t, tcp)
						type res struct {
							bits []bool
							err  error
						}
						gch := make(chan res, 1)
						go func() {
							bits, err := gep.garble(ga, plan, g, otp.p, 3)
							gch <- res{bits, err}
						}()
						ebits, err := eep.evaluate(ev, plan, e, otp.p)
						if err != nil {
							t.Fatalf("evaluator: %v", err)
						}
						gr := <-gch
						if gr.err != nil {
							t.Fatalf("garbler: %v", gr.err)
						}
						for i := range want {
							if gr.bits[i] != want[i] || ebits[i] != want[i] {
								t.Fatalf("output bit %d mismatch", i)
							}
						}
					})
				}
			}
		}
	}
}

// TestInteropMismatchRejected: a mismatched circuit fails fast at every
// evaluator endpoint, and the garbler returns once its peer is gone.
func TestInteropMismatchRejected(t *testing.T) {
	wg := workloads.AddN(8)
	we := workloads.AddN(16)
	gplan, err := circuit.NewPlan(wg.Build())
	if err != nil {
		t.Fatal(err)
	}
	eplan, err := circuit.NewPlan(we.Build())
	if err != nil {
		t.Fatal(err)
	}
	g, _ := wg.Inputs(1)
	_, e := we.Inputs(1)
	for _, ep := range endpoints {
		ga, ev := net.Pipe()
		errs := make(chan error, 1)
		go func() {
			_, err := ep.garble(ga, gplan, g, ot.Insecure, 2)
			errs <- err
		}()
		if _, err := ep.evaluate(ev, eplan, e, ot.Insecure); err == nil {
			t.Fatalf("%s: evaluator accepted a mismatched circuit", ep)
		}
		ev.Close() // unblock garbler
		if err := <-errs; err == nil {
			t.Fatalf("%s: garbler completed against a mismatched evaluator", ep)
		}
		ga.Close()
	}
}

// TestRejectsForeignPlan: a plan compiled from a different circuit must
// fail fast on both roles, before any byte moves.
func TestRejectsForeignPlan(t *testing.T) {
	c := workloads.DotProduct(4, 16).Build()
	other, err := circuit.NewPlan(workloads.Hamming(128).Build())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{OT: ot.Insecure, Seed: 3, Plan: other}
	ga, ev := net.Pipe()
	defer ga.Close()
	defer ev.Close()
	if _, err := RunGarbler(ga, c, make([]bool, c.GarblerInputs), opts); err == nil {
		t.Fatal("garbler accepted a plan for a different circuit")
	}
	if _, err := RunEvaluator(ev, c, make([]bool, c.EvaluatorInputs), opts); err == nil {
		t.Fatal("evaluator accepted a plan for a different circuit")
	}
}

// TestOneShotCompilesOnePlan pins the stated cost of the one-run
// wrappers: without Options.Plan each role compiles exactly one plan
// per call, and with it none.
func TestOneShotCompilesOnePlan(t *testing.T) {
	w := workloads.DotProduct(4, 16)
	c := w.Build()
	plan, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	g, e := w.Inputs(2)
	for _, tc := range []struct {
		plan *circuit.Plan
		want uint64
	}{{nil, 2}, {plan, 0}} {
		before := circuit.PlanBuilds()
		run2PC(t, c, g, e, Options{OT: ot.Insecure, Seed: 5, Plan: tc.plan})
		if got := circuit.PlanBuilds() - before; got != tc.want {
			t.Fatalf("plan=%v: one 2PC built %d plans, want %d", tc.plan != nil, got, tc.want)
		}
	}
}

// TestOneShotIntegrityCountsWireBytesOnce: with Options.Integrity the
// wrappers frame both directions and Stats counts the framed bytes on
// the wire — the payload plus well under 1% of frame headers — exactly
// once.
func TestOneShotIntegrityCountsWireBytesOnce(t *testing.T) {
	w := workloads.DotProduct(8, 16)
	c := w.Build()
	g, e := w.Inputs(31)
	want := w.Reference(g, e)
	sent := func(integrity bool) int64 {
		stats := &Stats{}
		gbits, ebits := run2PC(t, c, g, e, Options{OT: ot.Insecure, Seed: 17, Stats: stats, Integrity: integrity})
		for i := range want {
			if gbits[i] != want[i] || ebits[i] != want[i] {
				t.Fatalf("integrity=%v: output bit %d mismatch", integrity, i)
			}
		}
		return stats.BytesSent.Load()
	}
	plain, framed := sent(false), sent(true)
	if framed <= plain || framed > plain+plain/100 {
		t.Fatalf("framed run sent %d bytes, plain run %d: want plain < framed <= plain+1%%", framed, plain)
	}
}
