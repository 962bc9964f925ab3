package fleet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"haac/internal/circuit"
	"haac/internal/ot"
	"haac/internal/server"
	"haac/internal/workloads"
)

// specsFor builds the served circuit set shared by every backend of a
// test fleet: each workload with its seed-1 garbler bits.
func specsFor(ws ...workloads.Workload) []server.CircuitSpec {
	specs := make([]server.CircuitSpec, len(ws))
	for i, w := range ws {
		c := w.Build()
		garblerBits, _ := w.Inputs(1)
		specs[i] = server.CircuitSpec{
			ID:      w.Name,
			Circuit: c,
			Inputs:  func() []bool { return garblerBits },
		}
	}
	return specs
}

// launchServer starts one backend garbler on addr ("127.0.0.1:0" for an
// ephemeral port). The caller owns shutdown via the returned server.
func launchServer(t *testing.T, addr string, specs []server.CircuitSpec) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(server.Config{
		Circuits:        specs,
		Seed:            42,
		AllowInsecureOT: true,
		DrainTimeout:    time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// startFleet launches a fleet proxy on a loopback listener. Cleanup
// closes it and joins Serve.
func startFleet(t *testing.T, cfg Config) (*Fleet, string) {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Serve(ln) }()
	t.Cleanup(func() {
		f.Close()
		if err := <-done; err != nil {
			t.Errorf("fleet Serve returned %v", err)
		}
	})
	return f, ln.Addr().String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// oracle computes the plaintext reference output.
func oracle(t *testing.T, w workloads.Workload, c *circuit.Circuit, evalSeed int64) ([]bool, []bool) {
	t.Helper()
	garblerBits, _ := w.Inputs(1)
	_, evalBits := w.Inputs(evalSeed)
	want, err := c.Eval(garblerBits, evalBits)
	if err != nil {
		t.Fatal(err)
	}
	return evalBits, want
}

// TestFleetShardsByDigestByteIdentical is the routing acceptance test:
// 16 sessions across 4 circuits through a 2-backend fleet all produce
// outputs identical to the plaintext oracle, and digest sharding lands
// every session of a circuit on the same backend — exactly one plan
// build per circuit fleet-wide (the global build hook), with the
// combined plan-cache hit/miss counters accounting for every session.
func TestFleetShardsByDigestByteIdentical(t *testing.T) {
	ws := []workloads.Workload{
		workloads.AddN(8), workloads.AddN(12), workloads.AddN(16), workloads.DotProduct(2, 8),
	}
	specs := specsFor(ws...)
	buildsBefore := circuit.PlanBuilds()

	srvA, addrA := launchServer(t, "127.0.0.1:0", specs)
	defer srvA.Close()
	srvB, addrB := launchServer(t, "127.0.0.1:0", specs)
	defer srvB.Close()

	f, fleetAddr := startFleet(t, Config{
		Backends:      []Backend{{Addr: addrA}, {Addr: addrB}},
		ProbeInterval: -1,
	})

	const sessionsPerCircuit = 4
	const runsPerSession = 2
	var wg sync.WaitGroup
	errc := make(chan error, len(ws)*sessionsPerCircuit)
	for wi, w := range ws {
		c := w.Build()
		for i := 0; i < sessionsPerCircuit; i++ {
			wg.Add(1)
			go func(wi, i int, w workloads.Workload, c *circuit.Circuit) {
				defer wg.Done()
				sess, err := server.Dial(fleetAddr, w.Name, c, server.Options{OT: ot.Insecure})
				if err != nil {
					errc <- fmt.Errorf("%s session %d: dial: %w", w.Name, i, err)
					return
				}
				defer sess.Close()
				for run := 0; run < runsPerSession; run++ {
					evalBits, want := oracle(t, w, c, int64(wi*1000+i*10+run))
					got, err := sess.Run(evalBits)
					if err != nil {
						errc <- fmt.Errorf("%s session %d run %d: %w", w.Name, i, run, err)
						return
					}
					for j := range want {
						if got[j] != want[j] {
							errc <- fmt.Errorf("%s session %d run %d: output %d = %v, want %v", w.Name, i, run, j, got[j], want[j])
							return
						}
					}
				}
			}(wi, i, w, c)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Drain both backends so every session's counters are final.
	srvA.Close()
	srvB.Close()

	// Each circuit compiles once on the backend that owns its digest and
	// once in the client-side cache its plan-less sessions share.
	if got := circuit.PlanBuilds() - buildsBefore; got != uint64(2*len(ws)) {
		t.Errorf("plans built = %d, want exactly %d (per circuit: one fleet-wide — digest sharding keeps it on one backend — plus one client-side)", got, 2*len(ws))
	}
	stA, stB := srvA.Stats(), srvB.Stats()
	total := uint64(len(ws) * sessionsPerCircuit)
	if lookups := stA.CacheHits + stA.CacheMisses + stB.CacheHits + stB.CacheMisses; lookups != total {
		t.Errorf("combined cache lookups = %d, want %d", lookups, total)
	}
	if hits := stA.CacheHits + stB.CacheHits; hits == 0 {
		t.Error("combined cache hits = 0, want warmed-cache hits from repeat sessions")
	}
	// The placement is a pure function of (digest, addr): recompute the
	// expected split and hold each backend to it exactly.
	var wantA, wantB uint64
	for _, w := range ws {
		if rankAddrs(circuit.Digest(w.Build()), []string{addrA, addrB})[0] == addrA {
			wantA += sessionsPerCircuit
		} else {
			wantB += sessionsPerCircuit
		}
	}
	if stA.SessionsTotal != wantA || stB.SessionsTotal != wantB {
		t.Errorf("sessions split A=%d B=%d, want %d/%d per the rendezvous ranking", stA.SessionsTotal, stB.SessionsTotal, wantA, wantB)
	}

	st := f.Stats()
	if st.SessionsRouted != total {
		t.Errorf("fleet SessionsRouted = %d, want %d", st.SessionsRouted, total)
	}
	if st.SessionsRefused != 0 || st.DialFailures != 0 {
		t.Errorf("fleet refused=%d dialFailures=%d, want 0/0 on a healthy fleet", st.SessionsRefused, st.DialFailures)
	}
	if st.BytesClientToBackend == 0 || st.BytesBackendToClient == 0 {
		t.Errorf("spliced bytes = %d/%d, want both > 0", st.BytesClientToBackend, st.BytesBackendToClient)
	}
}

// TestFleetPlanBuildsPinnedAcrossWidths: widening the fleet never cools
// a cache. At 1, 2 and 4 backends the same circuit mix compiles exactly
// once per circuit fleet-wide — rendezvous hashing pins each digest to
// one backend — and every run matches the oracle. Clients bring their
// own plans, so every build counted is a backend's.
func TestFleetPlanBuildsPinnedAcrossWidths(t *testing.T) {
	ws := []workloads.Workload{
		workloads.AddN(8), workloads.AddN(12), workloads.AddN(16), workloads.DotProduct(2, 8),
	}
	specs := specsFor(ws...)
	circs := make([]*circuit.Circuit, len(ws))
	plans := make([]*circuit.Plan, len(ws))
	for i, w := range ws {
		circs[i] = w.Build()
		p, err := circuit.NewPlan(circs[i])
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}

	for _, backends := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("backends=%d", backends), func(t *testing.T) {
			buildsBefore := circuit.PlanBuilds()
			bs := make([]Backend, backends)
			for i := range bs {
				srv, addr := launchServer(t, "127.0.0.1:0", specs)
				defer srv.Close()
				bs[i] = Backend{Addr: addr}
			}
			_, fleetAddr := startFleet(t, Config{Backends: bs, ProbeInterval: -1})

			const sessionsPerCircuit = 2
			var wg sync.WaitGroup
			errc := make(chan error, len(ws)*sessionsPerCircuit)
			for wi, w := range ws {
				for i := 0; i < sessionsPerCircuit; i++ {
					evalBits, want := oracle(t, w, circs[wi], int64(wi*10+i))
					wg.Add(1)
					go func(w workloads.Workload, c *circuit.Circuit, p *circuit.Plan) {
						defer wg.Done()
						sess, err := server.Dial(fleetAddr, w.Name, c, server.Options{OT: ot.Insecure, Plan: p})
						if err != nil {
							errc <- fmt.Errorf("%s: dial: %w", w.Name, err)
							return
						}
						defer sess.Close()
						got, err := sess.Run(evalBits)
						if err != nil {
							errc <- fmt.Errorf("%s: run: %w", w.Name, err)
							return
						}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							errc <- fmt.Errorf("%s: output diverged from the oracle", w.Name)
						}
					}(w, circs[wi], plans[wi])
				}
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
			if got := circuit.PlanBuilds() - buildsBefore; got != uint64(len(ws)) {
				t.Errorf("plans built = %d at %d backends, want exactly %d (one per circuit fleet-wide)", got, backends, len(ws))
			}
		})
	}
}

// TestRendezvousRanking pins the routing function's properties: the
// order is deterministic, a permutation of the input, and removing the
// top-ranked backend leaves the relative order of the rest unchanged —
// the rendezvous guarantee that a backend failure only remaps sessions
// that were on the failed backend.
func TestRendezvousRanking(t *testing.T) {
	addrs := []string{"10.0.0.1:9100", "10.0.0.2:9100", "10.0.0.3:9100", "10.0.0.4:9100"}
	for i := 0; i < 32; i++ {
		var digest [32]byte
		for j := range digest {
			digest[j] = byte(i*31 + j)
		}
		r1 := rankAddrs(digest, addrs)
		r2 := rankAddrs(digest, addrs)
		if len(r1) != len(addrs) {
			t.Fatalf("ranking dropped addrs: %v", r1)
		}
		seen := map[string]bool{}
		for k := range r1 {
			if r1[k] != r2[k] {
				t.Fatalf("ranking not deterministic: %v vs %v", r1, r2)
			}
			seen[r1[k]] = true
		}
		if len(seen) != len(addrs) {
			t.Fatalf("ranking not a permutation: %v", r1)
		}
		// Remove the winner; the rest must keep their order.
		rest := rankAddrs(digest, r1[1:])
		for k := range rest {
			if rest[k] != r1[k+1] {
				t.Fatalf("removal reshuffled survivors: %v vs %v", rest, r1[1:])
			}
		}
	}
}

// TestFleetFailoverAndBreakerReadmission kills the rendezvous-first
// backend of a circuit and checks the full breaker arc: sessions fail
// over to the survivor within the same attempt, consecutive dial
// failures eject the dead backend, and after it restarts a half-open
// trial session readmits it.
func TestFleetFailoverAndBreakerReadmission(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	specs := specsFor(w)
	digest := circuit.Digest(c)

	lnX, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnY, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrX, addrY := lnX.Addr().String(), lnY.Addr().String()
	// Deterministically kill the backend this circuit routes to first.
	ranked := rankAddrs(digest, []string{addrX, addrY})
	deadAddr := ranked[0]
	deadLn, liveLn := lnX, lnY
	if deadAddr != addrX {
		deadLn, liveLn = lnY, lnX
	}
	deadLn.Close()
	srv, err := server.New(server.Config{Circuits: specs, Seed: 42, AllowInsecureOT: true})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(liveLn)
	defer srv.Close()

	f, fleetAddr := startFleet(t, Config{
		Backends:      []Backend{{Addr: addrX}, {Addr: addrY}},
		ProbeInterval: -1,
		FailThreshold: 2,
		ReopenAfter:   30 * time.Millisecond,
	})

	runOnce := func(i int) {
		t.Helper()
		sess, err := server.Dial(fleetAddr, w.Name, c, server.Options{OT: ot.Insecure})
		if err != nil {
			t.Fatalf("session %d: dial: %v", i, err)
		}
		defer sess.Close()
		evalBits, want := oracle(t, w, c, int64(i))
		got, err := sess.Run(evalBits)
		if err != nil {
			t.Fatalf("session %d: run: %v", i, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("session %d: output %d = %v, want %v", i, j, got[j], want[j])
			}
		}
	}
	for i := 0; i < 3; i++ {
		runOnce(i)
	}
	st := f.Stats()
	if st.Failovers != 3 {
		t.Errorf("Failovers = %d, want 3 (every session routed past the dead rendezvous-first backend)", st.Failovers)
	}
	if st.DialFailures != 2 {
		t.Errorf("DialFailures = %d, want 2 (third session skipped the ejected backend without dialing)", st.DialFailures)
	}
	if st.Ejections != 1 {
		t.Errorf("Ejections = %d, want 1", st.Ejections)
	}
	var dead BackendStats
	for _, bs := range st.Backends {
		if bs.Addr == deadAddr {
			dead = bs
		}
	}
	if !dead.Ejected || dead.Routable {
		t.Errorf("dead backend state = %+v, want ejected and unroutable", dead)
	}
	if st.LiveBackends != 1 {
		t.Errorf("LiveBackends = %d, want 1", st.LiveBackends)
	}

	// Restart the dead backend on its old address; once ReopenAfter
	// passes, the next session is the half-open trial that readmits it.
	ln2, err := net.Listen("tcp", deadAddr)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.New(server.Config{Circuits: specs, Seed: 43, AllowInsecureOT: true})
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln2)
	defer srv2.Close()
	time.Sleep(40 * time.Millisecond)
	runOnce(3)
	st = f.Stats()
	if st.Readmissions != 1 {
		t.Errorf("Readmissions = %d, want 1 (half-open trial readmitted the restarted backend)", st.Readmissions)
	}
	if st.LiveBackends != 2 {
		t.Errorf("LiveBackends = %d, want 2 after readmission", st.LiveBackends)
	}
	if srv2.Stats().SessionsTotal != 1 {
		t.Errorf("restarted backend served %d sessions, want 1 (the trial)", srv2.Stats().SessionsTotal)
	}
}

// TestFleetRelaysBackendRefusalVerbatim fronts a backend that refuses
// every session busy: the client must see the typed ErrBusy exactly as
// if it had dialed the backend directly.
func TestFleetRelaysBackendRefusalVerbatim(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if _, err := server.ReadHelloFrame(conn); err != nil {
					return
				}
				server.WriteRefusal(conn, server.ErrBusy, "")
			}(conn)
		}
	}()

	f, fleetAddr := startFleet(t, Config{
		Backends:      []Backend{{Addr: ln.Addr().String()}},
		ProbeInterval: -1,
	})
	w := workloads.AddN(8)
	_, err = server.Dial(fleetAddr, w.Name, w.Build(), server.Options{OT: ot.Insecure})
	if !errors.Is(err, server.ErrBusy) {
		t.Fatalf("dial through fleet = %v, want ErrBusy relayed from the backend", err)
	}
	st := f.Stats()
	if st.BackendRefusals != 1 {
		t.Errorf("BackendRefusals = %d, want 1", st.BackendRefusals)
	}
	if st.SessionsRouted != 0 {
		t.Errorf("SessionsRouted = %d, want 0 (a refused session was not routed)", st.SessionsRouted)
	}
}

// TestFleetRefusesRetiredHelloVersion: a version-1 hello — the run
// sequence whose choice correction waited for the header —, a version-2
// one — pools topped up by background refill ops between runs — and a
// version-3 one — the pool's first fill asked for by a refill op after
// the handshake — are refused by the proxy itself with a typed,
// permanent ErrBadVersion. No backend sees the session and a retrying client
// dials exactly once.
func TestFleetRefusesRetiredHelloVersion(t *testing.T) {
	w := workloads.AddN(8)
	srv, addr := launchServer(t, "127.0.0.1:0", specsFor(w))
	defer srv.Close()
	f, fleetAddr := startFleet(t, Config{
		Backends:      []Backend{{Addr: addr}},
		ProbeInterval: -1,
	})
	retry := server.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, RunTimeout: 2 * time.Second}
	for _, version := range []byte{1, 2, 3} {
		var dials atomic.Int32
		retired := func(addr string) (net.Conn, error) {
			dials.Add(1)
			conn, err := net.Dial("tcp", addr)
			return &helloVersionConn{Conn: conn, version: version}, err
		}
		_, err := server.Dial(fleetAddr, w.Name, w.Build(), server.Options{Retry: retry, Dialer: retired})
		if !errors.Is(err, server.ErrBadVersion) {
			t.Fatalf("v%d hello through the fleet = %v, want ErrBadVersion", version, err)
		}
		if n := dials.Load(); n != 1 {
			t.Errorf("v%d hello dialed %d times, want 1 (no retry)", version, n)
		}
	}
	if st := f.Stats(); st.SessionsRouted != 0 || st.DialFailures != 0 {
		t.Errorf("routed=%d dial failures=%d, want 0/0: the proxy refuses before routing", st.SessionsRouted, st.DialFailures)
	}
	if n := srv.Stats().SessionsTotal; n != 0 {
		t.Errorf("backend saw %d sessions, want 0", n)
	}
}

// helloVersionConn rewrites the version byte of the first frame it
// writes — the client hello — to version.
type helloVersionConn struct {
	net.Conn
	version byte
	sent    bool
}

func (c *helloVersionConn) Write(p []byte) (int, error) {
	if !c.sent {
		c.sent = true
		p = append([]byte(nil), p...)
		p[4] = c.version
	}
	return c.Conn.Write(p)
}

// TestFleetRefusesBusyWithNoLiveBackend drains the only backend: the
// fleet itself must refuse the handshake with a typed busy, and Drain
// of an unknown address must fail.
func TestFleetRefusesBusyWithNoLiveBackend(t *testing.T) {
	w := workloads.AddN(8)
	specs := specsFor(w)
	srv, addr := launchServer(t, "127.0.0.1:0", specs)
	defer srv.Close()
	f, fleetAddr := startFleet(t, Config{
		Backends:      []Backend{{Addr: addr}},
		ProbeInterval: -1,
	})
	if err := f.Drain("127.0.0.1:1"); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("Drain(unknown) = %v, want ErrUnknownBackend", err)
	}
	if err := f.Drain(addr); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	_, err := server.Dial(fleetAddr, w.Name, w.Build(), server.Options{OT: ot.Insecure})
	if !errors.Is(err, server.ErrBusy) {
		t.Fatalf("dial with all backends drained = %v, want ErrBusy", err)
	}
	if st := f.Stats(); st.SessionsRefused != 1 || st.LiveBackends != 0 {
		t.Errorf("refused=%d live=%d, want 1 refused, 0 live", st.SessionsRefused, st.LiveBackends)
	}
	if err := f.Undrain(addr); err != nil {
		t.Fatalf("Undrain: %v", err)
	}
	sess, err := server.Dial(fleetAddr, w.Name, w.Build(), server.Options{OT: ot.Insecure})
	if err != nil {
		t.Fatalf("dial after Undrain: %v", err)
	}
	sess.Close()
}

// TestFleetProbeGatesRouting drives the active prober: a backend whose
// /readyz answers 503 stops receiving routes without any client paying
// for a failure, and recovers when the probe succeeds again. The
// /healthz fallback covers backends predating /readyz.
func TestFleetProbeGatesRouting(t *testing.T) {
	w := workloads.AddN(8)
	specs := specsFor(w)
	srv, addr := launchServer(t, "127.0.0.1:0", specs)
	defer srv.Close()

	var code atomic.Int64
	code.Store(http.StatusOK)
	ops := httptest.NewServer(http.HandlerFunc(func(wr http.ResponseWriter, r *http.Request) {
		wr.WriteHeader(int(code.Load()))
	}))
	defer ops.Close()
	opsAddr := strings.TrimPrefix(ops.URL, "http://")

	f, fleetAddr := startFleet(t, Config{
		Backends:      []Backend{{Addr: addr, Ops: opsAddr}},
		ProbeInterval: 5 * time.Millisecond,
	})
	routable := func() bool { return f.Stats().LiveBackends == 1 }
	waitFor(t, "healthy probe", time.Second, routable)

	code.Store(http.StatusServiceUnavailable)
	waitFor(t, "failing probe to park the backend", time.Second, func() bool { return !routable() })
	_, err := server.Dial(fleetAddr, w.Name, w.Build(), server.Options{OT: ot.Insecure})
	if !errors.Is(err, server.ErrBusy) {
		t.Fatalf("dial with probe-failed backend = %v, want ErrBusy", err)
	}

	code.Store(http.StatusOK)
	waitFor(t, "recovering probe to readmit the backend", time.Second, routable)
	sess, err := server.Dial(fleetAddr, w.Name, w.Build(), server.Options{OT: ot.Insecure})
	if err != nil {
		t.Fatalf("dial after probe recovery: %v", err)
	}
	sess.Close()
	if pf := f.Stats().Backends[0].ProbeFailures; pf == 0 {
		t.Error("ProbeFailures = 0, want > 0 after the 503 window")
	}
}

// TestFleetProbeFallsBackToHealthz probes a backend whose ops surface
// only has /healthz (404 on /readyz): the prober must fall back and
// keep the backend routable.
func TestFleetProbeFallsBackToHealthz(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	ops := httptest.NewServer(mux)
	defer ops.Close()

	w := workloads.AddN(8)
	srv, addr := launchServer(t, "127.0.0.1:0", specsFor(w))
	defer srv.Close()
	f, _ := startFleet(t, Config{
		Backends:      []Backend{{Addr: addr, Ops: strings.TrimPrefix(ops.URL, "http://")}},
		ProbeInterval: 5 * time.Millisecond,
	})
	// Outlast several probe cycles: the backend must stay routable.
	time.Sleep(50 * time.Millisecond)
	if st := f.Stats(); st.LiveBackends != 1 || st.Backends[0].ProbeFailures != 0 {
		t.Errorf("live=%d probeFailures=%d, want 1 live with 0 failures via /healthz fallback", st.LiveBackends, st.Backends[0].ProbeFailures)
	}
}

// TestFleetRollingRestart is the drain-and-handoff acceptance test:
// three backends under continuous client load are restarted one at a
// time (Drain, stop, restart on the same address, Undrain) and every
// client run completes byte-identical — zero client-visible failures,
// with the healing visible as reconnects > 0.
func TestFleetRollingRestart(t *testing.T) {
	ws := []workloads.Workload{workloads.AddN(8), workloads.AddN(12), workloads.DotProduct(2, 8)}
	specs := specsFor(ws...)

	const nBackends = 3
	srvs := make([]*server.Server, nBackends)
	addrs := make([]string, nBackends)
	for i := range srvs {
		srvs[i], addrs[i] = launchServer(t, "127.0.0.1:0", specs)
	}
	defer func() {
		for _, srv := range srvs {
			srv.Close()
		}
	}()

	f, fleetAddr := startFleet(t, Config{
		Backends: []Backend{{Addr: addrs[0]}, {Addr: addrs[1]}, {Addr: addrs[2]}},
		// No active probing: the restart choreography must work on
		// Drain/Undrain and the breaker alone.
		ProbeInterval: -1,
		FailThreshold: 2,
		ReopenAfter:   20 * time.Millisecond,
		DrainTimeout:  100 * time.Millisecond,
	})

	stop := make(chan struct{})
	const nClients = 6
	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	var runs, reconnects atomic.Uint64
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := ws[i%len(ws)]
			c := w.Build()
			sess, err := server.Dial(fleetAddr, w.Name, c, server.Options{
				OT: ot.Insecure,
				Retry: server.RetryPolicy{
					MaxAttempts:      100,
					BaseBackoff:      time.Millisecond,
					MaxBackoff:       8 * time.Millisecond,
					HandshakeTimeout: 500 * time.Millisecond,
					Seed:             uint64(i + 1),
				},
			})
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", i, err)
				return
			}
			defer sess.Close()
			for run := 0; ; run++ {
				select {
				case <-stop:
					reconnects.Add(sess.Stats().Reconnects)
					return
				default:
				}
				evalBits, want := oracle(t, w, c, int64(i*1000+run))
				got, err := sess.Run(evalBits)
				if err != nil {
					errs <- fmt.Errorf("client %d run %d: %w", i, run, err)
					return
				}
				for j := range want {
					if got[j] != want[j] {
						errs <- fmt.Errorf("client %d run %d: output %d = %v, want %v", i, run, j, got[j], want[j])
						return
					}
				}
				runs.Add(1)
			}
		}(i)
	}

	// Let every client settle onto a backend, then roll the fleet.
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < nBackends; i++ {
		if err := f.Drain(addrs[i]); err != nil {
			t.Errorf("Drain(%s): %v", addrs[i], err)
		}
		srvs[i].Close()
		srv, addr := launchServer(t, addrs[i], specs)
		if addr != addrs[i] {
			t.Errorf("restart rebound %s as %s", addrs[i], addr)
		}
		srvs[i] = srv
		if err := f.Undrain(addrs[i]); err != nil {
			t.Errorf("Undrain(%s): %v", addrs[i], err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if runs.Load() == 0 {
		t.Fatal("no client runs completed")
	}
	if reconnects.Load() == 0 {
		t.Error("reconnects = 0, want > 0: the rolling restart should have broken and healed at least one session")
	}
	t.Logf("rolling restart: %d runs, %d reconnects, fleet stats %+v", runs.Load(), reconnects.Load(), f.Stats())
}

// TestFleetOpsEndpoints covers the proxy's own sidecar: /healthz,
// /readyz keyed on live backends, and the Prometheus metrics surface
// with per-backend series.
func TestFleetOpsEndpoints(t *testing.T) {
	w := workloads.AddN(8)
	srv, addr := launchServer(t, "127.0.0.1:0", specsFor(w))
	defer srv.Close()
	f, fleetAddr := startFleet(t, Config{
		Backends:      []Backend{{Addr: addr}},
		ProbeInterval: -1,
	})
	opsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opsDone := make(chan error, 1)
	go func() { opsDone <- f.ServeOps(opsLn) }()
	base := "http://" + opsLn.Addr().String()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz = %d, want 200 with a live backend", code)
	}

	// Route one session so the counters move.
	sess, err := server.Dial(fleetAddr, w.Name, w.Build(), server.Options{OT: ot.Insecure})
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()

	_, metrics := get("/metrics")
	for _, name := range []string{
		"haac_fleet_backends_live", "haac_fleet_backends_total",
		"haac_fleet_sessions_active", "haac_fleet_sessions_routed_total",
		"haac_fleet_sessions_refused_total", "haac_fleet_failovers_total",
		"haac_fleet_dial_failures_total", "haac_fleet_backend_refusals_total",
		"haac_fleet_ejections_total", "haac_fleet_readmissions_total",
		"haac_fleet_sessions_force_closed_total",
		"haac_fleet_bytes_client_to_backend_total", "haac_fleet_bytes_backend_to_client_total",
		"haac_fleet_backend_up", "haac_fleet_backend_sessions_routed_total",
		"haac_fleet_backend_failures_total",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if !strings.Contains(metrics, "haac_fleet_sessions_routed_total 1") {
		t.Errorf("/metrics routed counter did not advance:\n%s", metrics)
	}
	if !strings.Contains(metrics, fmt.Sprintf("haac_fleet_backend_up{backend=%q} 1", addr)) {
		t.Errorf("/metrics missing per-backend up series for %s", addr)
	}

	if err := f.Drain(addr); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "no live backend") {
		t.Errorf("/readyz with all backends drained = %d %q, want 503 no live backend", code, body)
	}

	f.Close()
	if err := <-opsDone; err != nil {
		t.Errorf("ServeOps returned %v after Close, want nil", err)
	}
	// A pooled keep-alive connection may still answer one last request,
	// but it must report the fleet as down; fresh connections fail.
	if resp, err := http.Get(base + "/healthz"); err == nil {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/healthz after Close = %d, want 503 draining", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestFleetServeAfterCloseRefuses pins the lifecycle edges: Serve and
// ServeOps on a closed fleet refuse with ErrClosed, Close is
// idempotent, and New rejects empty and duplicate backend sets.
func TestFleetServeAfterCloseRefuses(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no backends succeeded, want error")
	}
	if _, err := New(Config{Backends: []Backend{{Addr: "a:1"}, {Addr: "a:1"}}}); err == nil {
		t.Error("New with duplicate backends succeeded, want error")
	}
	if _, err := New(Config{Backends: []Backend{{}}}); err == nil {
		t.Error("New with empty backend address succeeded, want error")
	}

	f, err := New(Config{Backends: []Backend{{Addr: "127.0.0.1:1"}}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Serve(ln); !errors.Is(err, ErrClosed) {
		t.Errorf("Serve after Close = %v, want ErrClosed", err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ServeOps(ln2); !errors.Is(err, ErrClosed) {
		t.Errorf("ServeOps after Close = %v, want ErrClosed", err)
	}
}
