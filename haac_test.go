package haac

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"haac/internal/circuit"
)

// Facade-level integration tests: exercise the public API exactly as the
// README and examples present it.

func TestFacadeBuildEvalGarble2PC(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(16)
	y := b.EvaluatorInputs(16)
	b.OutputWord(b.Add(x, y))
	b.Output(b.GtU(x, y))
	c := b.MustBuild()

	g := bits(40000, 16)
	e := bits(30000, 16)

	plain, err := c.Eval(g, e)
	if err != nil {
		t.Fatal(err)
	}
	garbled, err := GarbleAndEvaluate(c, g, e, 99, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	secure, err := Run2PC(c, g, e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if garbled[i] != plain[i] {
			t.Fatalf("garbled bit %d != plaintext", i)
		}
		if secure[i] != plain[i] {
			t.Fatalf("2PC bit %d != plaintext", i)
		}
	}
	// 40000 + 30000 = 70000 mod 2^16 = 4464; 40000 > 30000.
	if v := val(plain[:16]); v != 4464 {
		t.Fatalf("sum = %d", v)
	}
	if !plain[16] {
		t.Fatal("comparison wrong")
	}
}

// TestFacadeUnplannedSharesOnePlan drives the plan engine, locally and
// as a 2PC, through the public API without a caller-supplied plan — and
// pins that Run2PC then compiles one plan for both of its roles.
func TestFacadeUnplannedSharesOnePlan(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(16)
	y := b.EvaluatorInputs(16)
	b.OutputWord(b.Mul(x, y))
	c := b.MustBuild()

	g := bits(321, 16)
	e := bits(123, 16)
	plain, err := c.Eval(g, e)
	if err != nil {
		t.Fatal(err)
	}

	local, err := GarbleAndEvaluate(c, g, e, 99, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	builds := circuit.PlanBuilds()
	pipe, err := Run2PC(c, g, e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := circuit.PlanBuilds() - builds; got != 1 {
		t.Fatalf("Run2PC without a plan built %d plans, want 1 shared by both roles", got)
	}
	for i := range plain {
		if local[i] != plain[i] {
			t.Fatalf("local bit %d != plaintext", i)
		}
		if pipe[i] != plain[i] {
			t.Fatalf("2PC bit %d != plaintext", i)
		}
	}
	// 321 * 123 = 39483.
	if v := val(plain); v != 39483 {
		t.Fatalf("product = %d", v)
	}
}

// TestFacadePrecompile exercises the compiled-plan facade: one
// Precompile handle shared across every plan-aware entry point, built
// exactly once no matter how many runs reuse it.
func TestFacadePrecompile(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(16)
	y := b.EvaluatorInputs(16)
	b.OutputWord(b.Mul(x, y))
	c := b.MustBuild()

	g := bits(321, 16)
	e := bits(123, 16)
	plain, err := c.Eval(g, e)
	if err != nil {
		t.Fatal(err)
	}

	builds := circuit.PlanBuilds()
	p, err := Precompile(c)
	if err != nil {
		t.Fatal(err)
	}
	if p.Circuit() != c {
		t.Fatal("Precompile lost the circuit")
	}
	if p.NumSlots() >= c.NumWires() || p.NumSlots() != p.PeakLive() {
		t.Fatalf("renaming stats wrong: %d slots, %d peak-live, %d wires",
			p.NumSlots(), p.PeakLive(), c.NumWires())
	}

	check := func(name string, out []bool, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range plain {
			if out[i] != plain[i] {
				t.Fatalf("%s: bit %d != plaintext", name, i)
			}
		}
	}
	for run := 0; run < 3; run++ {
		out, err := Run2PC(c, g, e, RunOptions{Plan: p})
		check("planned 2PC", out, err)
	}
	out, err := GarbleAndEvaluate(c, g, e, 99, RunOptions{Plan: p})
	check("planned local garble", out, err)

	if got := circuit.PlanBuilds() - builds; got != 1 {
		t.Fatalf("plan built %d times across all planned runs, want exactly 1", got)
	}

	// A plan from another circuit is rejected, not silently misused, by
	// every entry point that takes RunOptions — before any I/O, and
	// without building a plan of its own. The pipe's deadline only
	// bounds a run that wrongly starts; its peer never answers.
	other := MustBuildAdd(t)
	ga, ev := bits(1, 8), bits(2, 8)
	foreign := RunOptions{Plan: p}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Circuits: []ServedCircuit{{ID: "add8", Circuit: other, Inputs: func() []bool { return ga }}},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, peer := net.Pipe()
	defer conn.Close()
	defer peer.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Run2PC", func() error {
			_, err := Run2PC(other, ga, ev, foreign)
			return err
		}},
		{"RunGarbler", func() error {
			_, err := RunGarbler(conn, other, ga, foreign)
			return err
		}},
		{"RunEvaluator", func() error {
			_, err := RunEvaluator(conn, other, ev, foreign)
			return err
		}},
		{"Dial", func() error {
			sess, err := Dial(ln.Addr().String(), "add8", other, foreign)
			if err == nil {
				sess.Close()
			}
			return err
		}},
		{"GarbleAndEvaluate", func() error {
			_, err := GarbleAndEvaluate(other, ga, ev, 99, foreign)
			return err
		}},
	} {
		builds := circuit.PlanBuilds()
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), "compiled from a different circuit") {
			t.Errorf("%s: foreign plan not refused: %v", tc.name, err)
		}
		if got := circuit.PlanBuilds() - builds; got != 0 {
			t.Errorf("%s: built %d plans on refusing a foreign plan, want 0", tc.name, got)
		}
	}
}

// MustBuildAdd builds a small unrelated circuit for mismatch tests.
func MustBuildAdd(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder()
	x := b.GarblerInputs(8)
	y := b.EvaluatorInputs(8)
	b.OutputWord(b.Add(x, y))
	return b.MustBuild()
}

func TestFacadeCompileSimulate(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(32)
	y := b.EvaluatorInputs(32)
	b.OutputWord(b.Mul(x, y))
	c := b.MustBuild()

	cfg := DefaultCompilerConfig()
	cfg.NumGEs = 4
	cfg.SWWWires = 1024
	cp, err := Compile(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hw := DefaultHW()
	res, err := Simulate(cp, hw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time() <= 0 {
		t.Fatal("no simulated time")
	}
	if EnergyOf(res).Total() <= 0 {
		t.Fatal("no energy")
	}
	if AreaOf(cfg) <= 0 || AreaOf(cfg) >= AreaOf(DefaultCompilerConfig()) {
		t.Fatal("area scaling wrong")
	}

	// The HBM2 preset must never make things slower.
	hw2 := hw
	hw2.DRAM = HBM2
	res2, err := Simulate(cp, hw2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.TotalCycles > res.TotalCycles {
		t.Fatal("HBM2 slower than DDR4")
	}
}

func TestFacadeSuites(t *testing.T) {
	if len(VIPSuite()) != 8 || len(VIPSuiteSmall()) != 8 {
		t.Fatal("VIP suites must have 8 workloads")
	}
	names := map[string]bool{}
	for _, w := range VIPSuiteSmall() {
		names[w.Name] = true
	}
	for _, want := range []string{"BubbSt", "DotProd", "Merse", "Triangle", "Hamm", "MatMult", "ReLU", "GradDesc"} {
		if !names[want] {
			t.Fatalf("missing workload %s", want)
		}
	}
}

func TestFacadeReorderModes(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(8)
	y := b.EvaluatorInputs(8)
	b.OutputWord(b.Mul(x, y))
	c := b.MustBuild()
	for _, mode := range []ReorderMode{Baseline, SegmentReorder, FullReorder} {
		cfg := DefaultCompilerConfig()
		cfg.Reorder = mode
		cfg.NumGEs = 2
		cfg.SWWWires = 64
		cp, err := Compile(c.Clone(), cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		in, err := cp.InputBits(c, bits(200, 8), bits(3, 8))
		if err != nil {
			t.Fatal(err)
		}
		out, err := cp.Execute(in)
		if err != nil {
			t.Fatal(err)
		}
		if val(out) != (200*3)&0xff {
			t.Fatalf("%v: wrong product %d", mode, val(out))
		}
	}
}

// TestFacadeServing drives the serving layer through the public API
// exactly as the README presents it: NewServer + Server.Serve on a
// loopback listener, Dial sessions (one sharing a Precompiled plan),
// repeated Session.Run calls checked against Circuit.Eval, typed
// refusals, and graceful Close.
func TestFacadeServing(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(16)
	y := b.EvaluatorInputs(16)
	b.OutputWord(b.Add(x, y))
	c := b.MustBuild()
	g := bits(40000, 16)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Circuits: []ServedCircuit{{
			ID:      "add16",
			Circuit: c,
			Inputs:  func() []bool { return g },
		}},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	pre, err := Precompile(c)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.Eval(g, bits(30000, 16))
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]RunOptions{
		"dense":   {},
		"planned": {Plan: pre},
	} {
		sess, err := Dial(ln.Addr().String(), "add16", c, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for run := 0; run < 2; run++ {
			out, err := sess.Run(bits(30000, 16))
			if err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
			for i := range plain {
				if out[i] != plain[i] {
					t.Fatalf("%s run %d: bit %d differs from Eval", name, run, i)
				}
			}
		}
		if err := sess.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
	}

	if _, err := Dial(ln.Addr().String(), "nope", c, RunOptions{}); !errors.Is(err, ErrUnknownCircuit) {
		t.Fatalf("unknown circuit: got %v", err)
	}
	if d := CircuitDigest(c); d == [32]byte{} {
		t.Fatal("zero digest")
	}
	// A client's Run returns once it has sent its result; the server
	// counts the run when it has read it. Let the sessions drain first.
	deadline := time.Now().Add(15 * time.Second)
	for srv.Stats().ActiveSessions != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := srv.Stats()
	if st.RunsServed != 4 || st.CacheMisses != 1 {
		t.Fatalf("stats = %+v, want 4 runs / 1 miss", st)
	}
}

// TestFacadeSelfHealingSession: a session dialed with a retry policy
// survives its server being closed and replaced on the same address —
// Session.Run redials, re-handshakes and replays transparently, and the
// repair is visible in ClientStats and its Prometheus rendering.
func TestFacadeSelfHealingSession(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(16)
	y := b.EvaluatorInputs(16)
	b.OutputWord(b.Add(x, y))
	c := b.MustBuild()
	g := bits(1234, 16)

	cfg := ServerConfig{
		Circuits: []ServedCircuit{{
			ID:      "add16",
			Circuit: c,
			Inputs:  func() []bool { return g },
		}},
		Seed: 8,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	retry := RetryPolicy{MaxAttempts: 40, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond, Seed: 3}
	sess, err := Dial(addr, "add16", c, RunOptions{Retry: retry})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	plain, err := c.Eval(g, bits(4321, 16))
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		out, err := sess.Run(bits(4321, 16))
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		for i := range plain {
			if out[i] != plain[i] {
				t.Fatalf("%s: bit %d differs from Eval", stage, i)
			}
		}
	}
	check("before restart")

	// Replace the server: the old one drains (severing the idle
	// session), a fresh one binds the same address.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingListener{Listener: ln2}
	srv2, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(counted)
	defer srv2.Close()

	check("after restart")
	st := sess.Stats()
	if st.Reconnects < 1 {
		t.Fatalf("stats = %+v, want at least one reconnect across the restart", st)
	}
	if st.Runs != 2 {
		t.Fatalf("runs completed = %d, want 2", st.Runs)
	}
	metrics := st.MetricsText()
	for _, want := range []string{"haac_client_runs_total 2", "haac_client_reconnects_total"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("MetricsText missing %q:\n%s", want, metrics)
		}
	}

	// Permanent handshake refusals are not retried, even under a policy:
	// the refused dial costs the server exactly one connection. Every
	// connection a dial makes is accepted before its refusal is read, so
	// the count is final once Dial returns.
	accepted := counted.accepted.Load()
	if _, err := Dial(addr, "nope", c, RunOptions{Retry: retry}); !errors.Is(err, ErrUnknownCircuit) {
		t.Fatalf("unknown circuit under retry: got %v", err)
	}
	if n := counted.accepted.Load() - accepted; n != 1 {
		t.Fatalf("permanent refusal accepted %d connections, want 1 (no retry)", n)
	}
}

// countingListener counts the connections its Accept hands out.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

func bits(v uint64, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = v>>uint(i)&1 == 1
	}
	return out
}

func val(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}
