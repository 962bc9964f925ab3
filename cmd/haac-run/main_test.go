package main

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"haac/internal/circuit"
	"haac/internal/server"
	"haac/internal/workloads"
)

// freePort reserves an ephemeral TCP port and releases it for the test
// to reuse. The tiny race window is acceptable for a smoke test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// runMillionaires drives both roles of the binary's main path against
// each other and returns their outputs.
func runMillionaires(t *testing.T, extra ...string) (gout, eout string) {
	t.Helper()
	addr := freePort(t)

	type result struct {
		code int
		out  string
	}
	gch := make(chan result, 1)
	go func() {
		var out, errw bytes.Buffer
		args := append([]string{
			"-role", "garbler", "-listen", addr,
			"-workload", "Million-8", "-value", "200", "-ot", "insecure",
		}, extra...)
		code := run(args, &out, &errw)
		gch <- result{code, out.String() + errw.String()}
	}()

	// Dial side: retry until the garbler is listening.
	var eres result
	deadline := time.Now().Add(5 * time.Second)
	for {
		var out, errw bytes.Buffer
		args := append([]string{
			"-role", "evaluator", "-addr", addr,
			"-workload", "Million-8", "-value", "150", "-ot", "insecure",
		}, extra...)
		code := run(args, &out, &errw)
		eres = result{code, out.String() + errw.String()}
		if code == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if eres.code != 0 {
		t.Fatalf("evaluator exit %d:\n%s", eres.code, eres.out)
	}
	gres := <-gch
	if gres.code != 0 {
		t.Fatalf("garbler exit %d:\n%s", gres.code, gres.out)
	}
	return gres.out, eres.out
}

func TestRunMillionaires(t *testing.T) {
	gout, eout := runMillionaires(t)
	// 200 > 150: the garbler is richer, result bit 1.
	for _, out := range []string{gout, eout} {
		if !strings.Contains(out, "result as integer: 1") {
			t.Fatalf("expected result 1 in output:\n%s", out)
		}
	}
	if !strings.Contains(gout, "waiting for evaluator") {
		t.Fatalf("garbler banner missing:\n%s", gout)
	}
	if !strings.Contains(eout, "connected to") {
		t.Fatalf("evaluator banner missing:\n%s", eout)
	}
}

// TestRunClientMode drives the client role end to end against an
// in-process serving garbler: one session, several runs, plan reuse.
func TestRunClientMode(t *testing.T) {
	w, err := workloads.Find("Million-8", true)
	if err != nil {
		t.Fatal(err)
	}
	c := w.Build()
	garblerBits := circuit.UintToBools(200, c.GarblerInputs)
	srv, err := server.New(server.Config{
		Circuits: []server.CircuitSpec{{
			ID:      w.Name,
			Circuit: c,
			Inputs:  func() []bool { return garblerBits },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	}()

	var out, errw bytes.Buffer
	code := run([]string{
		"-role", "client", "-addr", ln.Addr().String(),
		"-workload", "Million-8", "-value", "150", "-runs", "3",
		"-retries", "3", "-retry-backoff", "1ms",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("client exit %d:\n%s%s", code, out.String(), errw.String())
	}
	s := out.String()
	if !strings.Contains(s, "session open") || !strings.Contains(s, "server plan") {
		t.Fatalf("session banner missing:\n%s", s)
	}
	for i := 1; i <= 3; i++ {
		if !strings.Contains(s, fmt.Sprintf("run %d result as integer: 1", i)) {
			t.Fatalf("run %d result missing (200 > 150 = 1):\n%s", i, s)
		}
	}

	if st := srv.Stats(); st.CacheMisses != 1 {
		t.Fatalf("server cache misses = %d, want 1", st.CacheMisses)
	}
}

// TestRunClientModeErrors: dial failures and refused circuits exit 1.
func TestRunClientModeErrors(t *testing.T) {
	addr := freePort(t) // nothing listening
	var out, errw bytes.Buffer
	if code := run([]string{"-role", "client", "-addr", addr, "-workload", "Million-8"}, &out, &errw); code != 1 {
		t.Fatalf("dead server: exit %d, want 1", code)
	}
	if errw.Len() == 0 {
		t.Fatal("no diagnostic on stderr")
	}
}

func TestRunBadArgs(t *testing.T) {
	cases := [][]string{
		{"-role", "nonsense"},
		{"-workload", "NoSuchThing", "-role", "garbler"},
		{"-role", "garbler", "-ot", "quantum"},
		{"-role", "client", "-runs", "0"},
		{"-role", "garbler", "-pipelined"},    // removed: tables always stream per level
		{"-role", "garbler", "-workers", "4"}, // removed: the engine is sequential
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Fatalf("args %v: exit %d, want 2 (stderr: %s)", args, code, errw.String())
		}
		if errw.Len() == 0 {
			t.Fatalf("args %v: no diagnostic on stderr", args)
		}
	}
}

func TestFindListsWorkloads(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-role", "evaluator", "-workload", "definitely-not-a-workload"}, &out, &errw); code != 2 {
		t.Fatalf("unknown workload: exit %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "Million-8") {
		t.Fatalf("error should list available workloads: %s", errw.String())
	}
}
