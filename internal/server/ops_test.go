package server

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"haac/internal/aes128"
	"haac/internal/ot"
	"haac/internal/workloads"
)

// get fetches a URL and returns the status code and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestOpsEndpoints drives /healthz and /metrics over loopback HTTP:
// health flips 200 -> 503 across Close, and the metrics exposition
// carries every counter family the fleet scrapes.
func TestOpsEndpoints(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	g, _ := w.Inputs(1)
	srv, addr := startServer(t, Config{
		Circuits:        []CircuitSpec{{ID: "add", Circuit: c, Inputs: func() []bool { return g }}},
		Seed:            14,
		MaxSessions:     1,
		AllowInsecureOT: true,
	})
	ops := httptest.NewServer(srv.OpsHandler())
	defer ops.Close()

	if code, body := get(t, ops.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz while serving: %d %q, want 200 ok", code, body)
	}

	// Serve one run and shed one connection so the counters are live.
	sess, err := Dial(addr, "add", c, Options{OT: ot.Insecure})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	_, e := w.Inputs(2)
	if _, err := sess.Run(e); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr, "add", c, Options{OT: ot.Insecure}); err == nil {
		t.Fatal("over-cap dial succeeded")
	}
	// The client sees the result a hair before the server bumps its run
	// counters; wait for them to land before scraping.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().RunsServed != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	_, body := get(t, ops.URL+"/metrics")
	for _, metric := range []string{
		fmt.Sprintf("haac_build_info{aes=%q} 1", aes128.Backend()),
		"haac_draining 0",
		"haac_sessions_active 1",
		"haac_sessions_total 1",
		"haac_sessions_refused_total 1",
		"haac_sessions_force_closed_total 0",
		"haac_runs_total 1",
		"haac_runs_failed_total 0",
		"haac_accept_retries_total 0",
		"haac_run_seconds_total",
		"haac_bytes_out_total",
		"haac_bytes_in_total",
		"haac_plan_cache_hits_total",
		"haac_plan_cache_misses_total 1",
		"haac_plan_cache_evictions_total 0",
		"haac_integrity_failures_total 0",
		"haac_runs_resumed_total 0",
		"haac_sessions_panicked_total 0",
		"haac_sessions_over_budget_total 0",
		"haac_runs_over_budget_total 0",
		"haac_table_send_seconds_total",
		"haac_table_drain_wait_seconds_total",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("metrics exposition missing %q:\n%s", metric, body)
		}
	}
	for _, metric := range []string{"haac_run_seconds_total", "haac_table_send_seconds_total", "haac_table_drain_wait_seconds_total"} {
		if strings.Contains(body, metric+" 0\n") {
			t.Errorf("%s still zero after a served run:\n%s", metric, body)
		}
	}
	// The client, which only evaluates, renders its own table read wait.
	if cm := sess.Stats().MetricsText(); !strings.Contains(cm, "haac_client_table_read_wait_seconds_total") ||
		strings.Contains(cm, "haac_client_table_read_wait_seconds_total 0\n") {
		t.Errorf("client metrics missing the table read wait:\n%s", cm)
	}

	sess.Close()
	srv.Close()
	if code, body := get(t, ops.URL+"/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("healthz after Close: %d %q, want 503 draining", code, body)
	}
	if _, body := get(t, ops.URL+"/metrics"); !strings.Contains(body, "haac_draining 1") {
		t.Errorf("metrics after Close missing haac_draining 1:\n%s", body)
	}
}

// TestReadyzStates walks /readyz through its three answers: 200 "ok"
// while routable, 503 "busy" while saturated at MaxSessions (the
// process is alive — /healthz stays 200 — but the next session would be
// refused), and 503 "draining" after Close.
func TestReadyzStates(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	g, _ := w.Inputs(1)
	srv, addr := startServer(t, Config{
		Circuits:        []CircuitSpec{{ID: "add", Circuit: c, Inputs: func() []bool { return g }}},
		Seed:            15,
		MaxSessions:     1,
		AllowInsecureOT: true,
	})
	ops := httptest.NewServer(srv.OpsHandler())
	defer ops.Close()

	if code, body := get(t, ops.URL+"/readyz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("readyz while routable: %d %q, want 200 ok", code, body)
	}

	// Saturate the session cap: readyz flips to busy, healthz stays ok.
	sess, err := Dial(addr, "add", c, Options{OT: ot.Insecure})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if code, body := get(t, ops.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "busy") {
		t.Fatalf("readyz at MaxSessions: %d %q, want 503 busy", code, body)
	}
	if code, _ := get(t, ops.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz at MaxSessions: %d, want 200 (saturated is alive, just not routable)", code)
	}

	// Free the slot: routable again once the server retires the session.
	sess.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _ := get(t, ops.URL+"/readyz")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never recovered after the session closed")
		}
		time.Sleep(time.Millisecond)
	}

	srv.Close()
	if code, body := get(t, ops.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("readyz after Close: %d %q, want 503 draining", code, body)
	}
}

// TestServeOpsRacesClose drives ServeOps listeners concurrently against
// Close: the sidecar registers through the same drain-aware lifecycle
// as the session listeners, so no schedule can leak a listener past
// Close or trip the race detector over the draining flag. Run under
// -race in CI.
func TestServeOpsRacesClose(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		c := workloads.AddN(8).Build()
		srv, err := New(Config{Circuits: []CircuitSpec{{ID: "add", Circuit: c}}})
		if err != nil {
			t.Fatal(err)
		}
		const listeners = 4
		lns := make([]net.Listener, listeners)
		for i := range lns {
			if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan error, listeners)
		for _, ln := range lns {
			go func(ln net.Listener) { done <- srv.ServeOps(ln) }(ln)
		}
		// No synchronization: Close races the ServeOps registrations.
		srv.Close()
		for i := 0; i < listeners; i++ {
			// Both outcomes of the race are legal — a listener that
			// registered before Close winds down with nil, one that lost
			// the race is refused ErrDraining — but nothing else is.
			if err := <-done; err != nil && err != ErrDraining {
				t.Fatalf("trial %d: ServeOps racing Close returned %v", trial, err)
			}
		}
		for _, ln := range lns {
			ln.Close()
		}
	}
}

// TestServeOpsLifecycle: the sidecar serves on its own listener and
// winds down with the server like the session listeners do.
func TestServeOpsLifecycle(t *testing.T) {
	c := workloads.AddN(8).Build()
	srv, err := New(Config{Circuits: []CircuitSpec{{ID: "add", Circuit: c}}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeOps(ln) }()

	// Poll until the HTTP server answers.
	url := "http://" + ln.Addr().String() + "/healthz"
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("healthz = %d, want 200", resp.StatusCode)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ops endpoint never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, body := get(t, "http://"+ln.Addr().String()+"/metrics"); code != http.StatusOK || !strings.Contains(body, "haac_sessions_active") {
		t.Fatalf("metrics over ServeOps: %d %q", code, body)
	}

	srv.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeOps returned %v after Close, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeOps did not return after Close")
	}
	// A drained server refuses a new ops listener, mirroring Serve.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeOps(ln2); err != ErrDraining {
		t.Fatalf("ServeOps after Close: %v, want ErrDraining", err)
	}
}
