package main

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"io"
	"math/big"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"haac/internal/aes128"
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

var addrRe = regexp.MustCompile(`serving \d+ circuits on (\S+)`)

// startDaemon runs the daemon's run() on an ephemeral port and waits
// for the serving banner. It returns the bound address, the output
// buffer, the stop trigger and the exit-code channel.
func startDaemon(t *testing.T, args []string) (string, *tsBuffer, func(), <-chan int) {
	t.Helper()
	stdout, stderrw := &tsBuffer{}, &tsBuffer{}
	stop := make(chan struct{})
	code := make(chan int, 1)
	go func() {
		code <- run(append([]string{"-listen", "127.0.0.1:0"}, args...), stdout, stderrw, stop)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := addrRe.FindStringSubmatch(stdout.String()); m != nil {
			var once sync.Once
			return m[1], stdout, func() { once.Do(func() { close(stop) }) }, code
		}
		select {
		case c := <-code:
			t.Fatalf("daemon exited %d before serving:\n%s%s", c, stdout.String(), stderrw.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never printed its banner:\n%s%s", stdout.String(), stderrw.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDaemonServesAndDrains: end-to-end over loopback TCP — the daemon
// serves the millionaires' circuit, a client session computes against
// it repeatedly, and SIGINT-style shutdown drains and reports totals.
func TestDaemonServesAndDrains(t *testing.T) {
	addr, stdout, stop, code := startDaemon(t, []string{"-workloads", "Million-8", "-value", "200"})
	defer stop()

	w := workloads.Workload{}
	for _, cand := range workloads.VIPSuiteSmall() {
		if cand.Name == "Million-8" {
			w = cand
		}
	}
	if w.Build == nil {
		for _, cand := range workloads.MicroSuite() {
			if cand.Name == "Million-8" {
				w = cand
			}
		}
	}
	if w.Build == nil {
		t.Fatal("Million-8 workload not found")
	}
	c := w.Build()
	sess, err := server.Dial(addr, "Million-8", c, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	evalBits := make([]bool, c.EvaluatorInputs)
	evalBits[1] = true
	evalBits[2] = true
	evalBits[4] = true
	evalBits[7] = true // 150
	for i := 0; i < 3; i++ {
		out, err := sess.Run(evalBits)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(out) != 1 || !out[0] {
			t.Fatalf("run %d: 200 > 150 should be true, got %v", i, out)
		}
	}
	sess.Close()

	stop()
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("daemon exit %d:\n%s", c, stdout.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not drain:\n%s", stdout.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "draining sessions") {
		t.Errorf("no drain banner:\n%s", out)
	}
	if !strings.Contains(out, "aes128 backend "+aes128.Backend()) {
		t.Errorf("start-up banner does not name the AES tier:\n%s", out)
	}
	if !strings.Contains(out, "served 3 runs over 1 sessions") {
		t.Errorf("serving totals missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "sha256:") {
		t.Errorf("circuit digest banner missing:\n%s", out)
	}
}

var opsRe = regexp.MustCompile(`ops endpoints on http://(\S+)`)

// TestDaemonOpsEndpoints: -ops brings up the loopback HTTP sidecar;
// /healthz answers ok while serving and /metrics carries live counters.
func TestDaemonOpsEndpoints(t *testing.T) {
	addr, stdout, stop, code := startDaemon(t, []string{"-ops", "127.0.0.1:0", "-workloads", "Million-8", "-value", "200"})
	defer stop()

	m := opsRe.FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("no ops banner:\n%s", stdout.String())
	}
	opsURL := "http://" + m[1]

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(opsURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if codeHZ, body := get("/healthz"); codeHZ != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q, want 200 ok", codeHZ, body)
	}

	// Drive one run so the scrape shows live counters.
	var w workloads.Workload
	for _, cand := range append(workloads.VIPSuiteSmall(), workloads.MicroSuite()...) {
		if cand.Name == "Million-8" {
			w = cand
		}
	}
	c := w.Build()
	sess, err := server.Dial(addr, "Million-8", c, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(make([]bool, c.EvaluatorInputs)); err != nil {
		t.Fatal(err)
	}
	sess.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := get("/metrics")
		if strings.Contains(body, "haac_runs_total 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never showed the served run:\n%s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	stop()
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("daemon exit %d:\n%s", c, stdout.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not drain:\n%s", stdout.String())
	}
}

// writeTLSPair mints a self-signed loopback certificate and writes the
// PEM pair to the test's temp dir.
func writeTLSPair(t *testing.T) (certFile, keyFile string, pool *x509.CertPool) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "haacd-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.IPv4(127, 0, 0, 1)},
		DNSNames:              []string{"localhost"},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	certFile, keyFile = filepath.Join(dir, "cert.pem"), filepath.Join(dir, "key.pem")
	if err := os.WriteFile(certFile, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der}), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile, pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER}), 0o600); err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool = x509.NewCertPool()
	pool.AddCert(leaf)
	return certFile, keyFile, pool
}

// TestDaemonTLS: -tls-cert/-tls-key wrap the session listener; a TLS
// client trusting the pair completes a run, and half a pair is a usage
// error.
func TestDaemonTLS(t *testing.T) {
	certFile, keyFile, pool := writeTLSPair(t)
	addr, stdout, stop, code := startDaemon(t, []string{
		"-workloads", "Million-8", "-value", "200",
		"-tls-cert", certFile, "-tls-key", keyFile,
	})
	defer stop()
	if !strings.Contains(stdout.String(), "(TLS)") {
		t.Errorf("banner does not announce TLS:\n%s", stdout.String())
	}

	var w workloads.Workload
	for _, cand := range append(workloads.VIPSuiteSmall(), workloads.MicroSuite()...) {
		if cand.Name == "Million-8" {
			w = cand
		}
	}
	c := w.Build()
	sess, err := server.Dial(addr, "Million-8", c, server.Options{
		TLS: &tls.Config{RootCAs: pool, ServerName: "localhost"},
	})
	if err != nil {
		t.Fatalf("TLS dial: %v", err)
	}
	if _, err := sess.Run(make([]bool, c.EvaluatorInputs)); err != nil {
		t.Fatalf("TLS run: %v", err)
	}
	sess.Close()

	stop()
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("daemon exit %d:\n%s", c, stdout.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not drain:\n%s", stdout.String())
	}

	for _, args := range [][]string{
		{"-workloads", "Million-8", "-tls-cert", certFile},
		{"-workloads", "Million-8", "-tls-key", keyFile},
		{"-workloads", "Million-8", "-tls-cert", certFile, "-tls-key", certFile},
	} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw, make(chan struct{})); code != 2 {
			t.Fatalf("args %v: exit %d, want 2 (stderr: %s)", args, code, errw.String())
		}
	}
}

// TestDaemonBadArgs: usage errors exit 2 with a diagnostic.
func TestDaemonBadArgs(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-workloads", "NoSuchThing"},
		{"-workloads", ""},
		{"-workloads", " , "},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		stop := make(chan struct{})
		if code := run(args, &out, &errw, stop); code != 2 {
			t.Fatalf("args %v: exit %d, want 2 (stderr: %s)", args, code, errw.String())
		}
		if errw.Len() == 0 {
			t.Fatalf("args %v: no diagnostic on stderr", args)
		}
	}
}

// TestDaemonBadListen: an unusable listen address exits 1.
func TestDaemonBadListen(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-listen", "256.256.256.256:1", "-workloads", "Million-8"}, &out, &errw, make(chan struct{}))
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errw.String())
	}
	if errw.Len() == 0 {
		t.Fatal("no diagnostic on stderr")
	}
}

// TestSpecsForAll: the default workload set resolves and packs values.
func TestSpecsForAll(t *testing.T) {
	specs, err := specsFor("all", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 5 {
		t.Fatalf("only %d specs for all", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.ID] {
			t.Fatalf("duplicate spec %q", s.ID)
		}
		seen[s.ID] = true
		bits := s.Inputs()
		if len(bits) != s.Circuit.GarblerInputs {
			t.Fatalf("%s: %d input bits for %d garbler inputs", s.ID, len(bits), s.Circuit.GarblerInputs)
		}
	}
}
