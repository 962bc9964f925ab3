package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"haac/internal/aes128"
	"haac/internal/ot"
	"haac/internal/server"
	"haac/internal/workloads"
)

// tsBuffer is a mutex-guarded buffer: the daemon goroutine writes while
// the test polls its contents.
type tsBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *tsBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *tsBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startBackend launches one garbler serving Million-8 with its ops
// sidecar, returning the session and ops addresses.
func startBackend(t *testing.T, seed uint64) (sessionAddr, opsAddr string) {
	t.Helper()
	var w workloads.Workload
	for _, cand := range append(workloads.VIPSuiteSmall(), workloads.MicroSuite()...) {
		if cand.Name == "Million-8" {
			w = cand
		}
	}
	c := w.Build()
	garblerBits := make([]bool, c.GarblerInputs)
	garblerBits[3] = true // 8
	srv, err := server.New(server.Config{
		Circuits: []server.CircuitSpec{{
			ID:      "Million-8",
			Circuit: c,
			Inputs:  func() []bool { return garblerBits },
		}},
		Seed:            seed,
		AllowInsecureOT: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	go srv.ServeOps(opsLn)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), opsLn.Addr().String()
}

var fleetAddrRe = regexp.MustCompile(`fronting \d+ backends on (\S+)`)
var fleetOpsRe = regexp.MustCompile(`ops endpoints on http://(\S+)`)

// startFleetDaemon runs the proxy's run() on an ephemeral port and
// waits for its banner.
func startFleetDaemon(t *testing.T, args []string) (string, *tsBuffer, func(), <-chan int) {
	t.Helper()
	stdout, stderrw := &tsBuffer{}, &tsBuffer{}
	stop := make(chan struct{})
	code := make(chan int, 1)
	go func() {
		code <- run(append([]string{"-listen", "127.0.0.1:0"}, args...), stdout, stderrw, stop)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := fleetAddrRe.FindStringSubmatch(stdout.String()); m != nil {
			var once sync.Once
			return m[1], stdout, func() { once.Do(func() { close(stop) }) }, code
		}
		select {
		case c := <-code:
			t.Fatalf("fleet daemon exited %d before serving:\n%s%s", c, stdout.String(), stderrw.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet daemon never printed its banner:\n%s%s", stdout.String(), stderrw.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetDaemonProxiesAndDrains: end-to-end through the proxy daemon
// — two probed backends, client sessions run byte-correct computations,
// the ops sidecar scrapes, SIGINT-style shutdown drains and reports
// routing totals.
func TestFleetDaemonProxiesAndDrains(t *testing.T) {
	addr1, ops1 := startBackend(t, 42)
	addr2, ops2 := startBackend(t, 43)
	addr, stdout, stop, code := startFleetDaemon(t, []string{
		"-backends", fmt.Sprintf("%s=%s,%s=%s", addr1, ops1, addr2, ops2),
		"-ops", "127.0.0.1:0",
		"-probe-interval", "10ms",
	})
	defer stop()

	m := fleetOpsRe.FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("no ops banner:\n%s", stdout.String())
	}
	opsURL := "http://" + m[1]

	var w workloads.Workload
	for _, cand := range append(workloads.VIPSuiteSmall(), workloads.MicroSuite()...) {
		if cand.Name == "Million-8" {
			w = cand
		}
	}
	c := w.Build()
	sess, err := server.Dial(addr, "Million-8", c, server.Options{OT: ot.Insecure})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	evalBits := make([]bool, c.EvaluatorInputs)
	evalBits[0] = true // 1 < 8
	for i := 0; i < 3; i++ {
		out, err := sess.Run(evalBits)
		if err != nil {
			t.Fatalf("run %d through the proxy: %v", i, err)
		}
		if len(out) != 1 || !out[0] {
			t.Fatalf("run %d: 8 > 1 should be true, got %v", i, out)
		}
	}
	sess.Close()

	resp, err := http.Get(opsURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "haac_fleet_sessions_routed_total 1") {
		t.Errorf("proxy metrics missing the routed session:\n%s", body)
	}

	stop()
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("fleet daemon exit %d:\n%s", c, stdout.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("fleet daemon did not drain:\n%s", stdout.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "draining sessions") {
		t.Errorf("no drain banner:\n%s", out)
	}
	if !strings.Contains(out, "routed 1 sessions") {
		t.Errorf("routing totals missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "aes128 backend "+aes128.Backend()) {
		t.Errorf("start-up banner does not name the AES tier:\n%s", out)
	}
}

// TestFleetDaemonBadArgs: usage errors exit 2 with a diagnostic.
func TestFleetDaemonBadArgs(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{},                       // no backends
		{"-backends", " , "},     // empty elements only
		{"-backends", "=ops:1"},  // missing addr
		{"-backends", "addr:1="}, // dangling ops
		{"-backends", "a:1", "-tls-cert", "x.pem"}, // half a TLS pair
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw, make(chan struct{})); code != 2 {
			t.Fatalf("args %v: exit %d, want 2 (stderr: %s)", args, code, errw.String())
		}
		if errw.Len() == 0 {
			t.Fatalf("args %v: no diagnostic on stderr", args)
		}
	}
}

// TestParseBackends pins the -backends grammar.
func TestParseBackends(t *testing.T) {
	specs, err := parseBackends("a:1, b:2=c:3 ,d:4")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ addr, ops string }{{"a:1", ""}, {"b:2", "c:3"}, {"d:4", ""}}
	if len(specs) != len(want) {
		t.Fatalf("parsed %d backends, want %d", len(specs), len(want))
	}
	for i, w := range want {
		if specs[i].Addr != w.addr || specs[i].Ops != w.ops {
			t.Errorf("backend %d = %+v, want %+v", i, specs[i], w)
		}
	}
}

// TestFleetDaemonBadListen: an unusable listen address exits 1.
func TestFleetDaemonBadListen(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-listen", "256.256.256.256:1", "-backends", "127.0.0.1:1"}, &out, &errw, make(chan struct{}))
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errw.String())
	}
	if errw.Len() == 0 {
		t.Fatal("no diagnostic on stderr")
	}
}
