package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"haac/internal/circuit"
	"haac/internal/fleet"
	"haac/internal/ot"
	"haac/internal/proto"
	"haac/internal/server"
	"haac/internal/workloads"
)

// ringSize is the number of evaluator-input vectors each workload
// cycles through; their expected outputs are computed in set-up.
const ringSize = 16

// rateSegments is the number of equal-count segments a window's
// completions are split into; runs_per_s is the median segment's rate.
const rateSegments = 10

// serveSpec describes one serve workload. All of them are closed loop
// (a client sends its next op only after the previous reply) over
// loopback TCP, with the load generator inside this process.
type serveSpec struct {
	name  string
	why   string // one line, as in BENCHMARK.json
	full  func() workloads.Workload
	smoke func() workloads.Workload
	// clients is the number of concurrent client connections (at most
	// 2: this box has 2 cores and the servers share them).
	clients int
	// poolRuns sizes the client's OT pool in runs' worth of evaluator
	// inputs; 0 means no pool (on-demand IKNP).
	poolRuns int
	// churn makes one op a dial through the fleet proxy, one run and a
	// close, instead of one run on a long-lived direct session.
	churn    bool
	backends int
}

var serveSpecs = []serveSpec{
	{name: "serve.tables", why: "135k-AND DotProduct(128,32) on one pooled session: gc hashing and proto table streaming do >95% of the work, ot <3%",
		full: func() workloads.Workload { return workloads.DotProduct(128, 32) }, smoke: func() workloads.Workload { return workloads.DotProduct(4, 8) }, clients: 1, poolRuns: 8, backends: 1},
	// 4 runs' worth (262144 at full scale, the server's MaxPoolSize
	// raised to match): smaller pools make hit/miss timing-dependent.
	{name: "serve.inputs", why: "65536-input ReLU(2048,32) on one pooled session: ot derandomization and background refill do about half the work and 60% of the bytes",
		full: func() workloads.Workload { return workloads.ReLU(2048, 32) }, smoke: func() workloads.Workload { return workloads.ReLU(8, 16) }, clients: 1, poolRuns: 4, backends: 1},
	{name: "serve.small", why: "1k-AND DotProduct(4,16) on two concurrent pooled sessions: per-run fixed cost in proto/server dominates, gc is minor",
		full: func() workloads.Workload { return workloads.DotProduct(4, 16) }, smoke: func() workloads.Workload { return workloads.DotProduct(2, 8) }, clients: 2, poolRuns: 128, backends: 1},
	{name: "serve.churn", why: "dial via the fleet proxy + one AES-128 run + close per op, on-demand IKNP: handshake, routing, plan-cache lookup and base OTs are paid per op",
		full: workloads.AES128, smoke: workloads.AES128, clients: 1, churn: true, backends: 2},
}

// serveEnv is one set-up of a serve workload: circuit, oracle, servers,
// optional proxy and the dialled, warmed sessions.
type serveEnv struct {
	spec serveSpec
	cfg  *config
	w    workloads.Workload
	c    *circuit.Circuit
	plan *circuit.Plan
	g    []bool
	ring [ringSize][]bool
	want [ringSize][]bool

	servers   []*server.Server
	addrs     []string
	serveDone []chan error
	proxy     *fleet.Fleet
	proxyAddr string
	proxyDone chan error

	stats    *proto.Stats // client-side transport bytes, all sessions
	sessions []*server.Session
}

var (
	errClientDead = errors.New("client could not redial")
	errMismatch   = errors.New("output differs from the plaintext oracle")
)

func (e *serveEnv) poolSize() int { return e.spec.poolRuns * e.c.EvaluatorInputs }

// options are the client options of the workload's sessions.
func (e *serveEnv) options() server.Options {
	if e.spec.poolRuns == 0 {
		return server.Options{Plan: e.plan, OT: ot.IKNP, Stats: e.stats}
	}
	return server.Options{Plan: e.plan, PoolSize: e.poolSize(), Stats: e.stats}
}

func setupServe(spec serveSpec, w workloads.Workload, cfg *config) (env *serveEnv, err error) {
	tr := cfg.tr
	parent := tr.begin("setup", "benchmark", -1, -1)
	defer tr.end(parent)
	e := &serveEnv{spec: spec, cfg: cfg, w: w, stats: &proto.Stats{}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	id := tr.begin("Build", "workloads", -1, parent)
	e.c = e.w.Build()
	tr.end(id)
	e.g, _ = e.w.Inputs(cfg.seed)
	for i := range e.ring {
		_, e.ring[i] = e.w.Inputs(cfg.seed*ringSize + int64(i) + 1)
		e.want[i] = e.w.Reference(e.g, e.ring[i])
		if cfg.corruptOracle {
			e.want[i][0] = !e.want[i][0]
		}
	}
	id = tr.begin("NewPlan", "circuit", -1, parent)
	e.plan, err = circuit.NewPlan(e.c)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	maxPool := 0 // the server's 65536 default
	if e.poolSize() > 65536 {
		maxPool = e.poolSize()
	}
	id = tr.begin("Serve", "server", -1, parent)
	for i := 0; i < spec.backends; i++ {
		srv, err := server.New(server.Config{
			Circuits:     []server.CircuitSpec{{ID: e.w.Name, Circuit: e.c, Inputs: func() []bool { return e.g }}},
			MaxPoolSize:  maxPool,
			DrainTimeout: time.Second,
		})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		e.servers, e.addrs, e.serveDone = append(e.servers, srv), append(e.addrs, ln.Addr().String()), append(e.serveDone, done)
	}
	tr.end(id)
	if spec.churn {
		id = tr.begin("Serve", "fleet", -1, parent)
		err = e.startProxy()
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}

	if !spec.churn {
		for i := 0; i < spec.clients; i++ {
			id = tr.begin("Dial", "server", -1, parent)
			s, err := server.Dial(e.addrs[0], e.w.Name, e.c, e.options())
			tr.end(id)
			if err != nil {
				return nil, err
			}
			e.sessions = append(e.sessions, s)
			if spec.poolRuns > 0 && !s.Pooled() {
				return nil, fmt.Errorf("%s: server did not grant the pooled tier", spec.name)
			}
		}
	}
	for client := 0; client < spec.clients; client++ {
		for n := 0; n < cfg.sc.warmups; n++ {
			// A wrong output in a warm-up is left for the window to count.
			if err := e.op(client, -1-n, tr, parent); err != nil && !errors.Is(err, errMismatch) {
				return nil, fmt.Errorf("%s: warm-up: %w", spec.name, err)
			}
		}
	}
	return e, nil
}

// startProxy fronts the env's backends with a fleet proxy. Probing is
// off: the backends run no ops sidecar, routing relies on the passive
// breaker.
func (e *serveEnv) startProxy() error {
	bs := make([]fleet.Backend, len(e.addrs))
	for i, a := range e.addrs {
		bs[i] = fleet.Backend{Addr: a}
	}
	fl, err := fleet.New(fleet.Config{Backends: bs, ProbeInterval: -1, DrainTimeout: time.Second})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fl.Close()
		return err
	}
	e.proxy, e.proxyAddr, e.proxyDone = fl, ln.Addr().String(), make(chan error, 1)
	go func() { e.proxyDone <- fl.Serve(ln) }()
	return nil
}

// closeSessions closes the long-lived client sessions.
func (e *serveEnv) closeSessions() {
	for _, s := range e.sessions {
		s.Close()
	}
	e.sessions = nil
}

// close stops everything the set-up started and waits for it.
func (e *serveEnv) close() {
	e.closeSessions()
	if e.proxy != nil {
		e.proxy.Close()
		<-e.proxyDone
		e.proxy = nil
	}
	for i, srv := range e.servers {
		srv.Close()
		<-e.serveDone[i]
	}
	e.servers = nil
}

// quiesce waits until the servers and the proxy have finished the
// bookkeeping of sessions the clients already closed: their counters
// lag the client's Close return, so reading them earlier undercounts.
func (e *serveEnv) quiesce() {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		active := 0
		for _, srv := range e.servers {
			active += srv.Stats().ActiveSessions
		}
		if e.proxy != nil {
			active += e.proxy.Stats().ActiveSessions
		}
		if active == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// check compares one op's output with the oracle's bits for its input
// vector.
func (e *serveEnv) check(k int, out []bool) error {
	if !equalBits(out, e.want[k]) {
		return fmt.Errorf("input vector %d: %w", k, errMismatch)
	}
	return nil
}

// op performs the n-th op of a client and verifies it. Spans go under
// parent, or under a fresh op span when parent is -1.
func (e *serveEnv) op(client, n int, tr *tracer, parent int) error {
	k := ((client*5+n)%ringSize + ringSize) % ringSize
	if parent < 0 {
		parent = tr.begin("op", "benchmark", n*e.spec.clients+client, -1)
		defer tr.end(parent)
	}
	if e.spec.churn {
		id := tr.begin("Dial", "fleet", n, parent)
		s, err := server.Dial(e.proxyAddr, e.w.Name, e.c, e.options())
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("Run", "fleet", n, parent)
		out, err := s.Run(e.ring[k])
		tr.end(id)
		if err == nil {
			err = e.check(k, out)
		}
		id = tr.begin("Close", "fleet", n, parent)
		cerr := s.Close()
		tr.end(id)
		if err == nil {
			err = cerr
		}
		return err
	}
	id := tr.begin("Run", "server", n, parent)
	out, err := e.sessions[client].Run(e.ring[k])
	tr.end(id)
	if err != nil {
		// A failed run leaves the session unusable; dial a fresh one
		// so one failure does not fail the rest of the window.
		e.sessions[client].Close()
		s, derr := server.Dial(e.addrs[0], e.w.Name, e.c, e.options())
		if derr != nil {
			return fmt.Errorf("%w: %w (after %w)", errClientDead, derr, err)
		}
		e.sessions[client] = s
		return err
	}
	return e.check(k, out)
}

// window is one measured closed-loop window.
type window struct {
	ends      []time.Duration // completion offsets of verified ops, sorted
	latMS     []float64       // client-observed latency of verified ops
	attempted int
	failed    int
	firstErr  error
	bytes     int64  // client-side sent+received
	mallocs   uint64 // process-wide
	heapMB    float64
	rounds    uint64 // base-OT rounds
	poolHits  uint64
	poolMiss  uint64
}

// poolCounters sums the long-lived sessions' pool hits and misses.
func (e *serveEnv) poolCounters() (hits, misses uint64) {
	for _, s := range e.sessions {
		st := s.Stats()
		hits, misses = hits+st.PoolHits, misses+st.PoolMisses
	}
	return hits, misses
}

// measure runs every client in a closed loop for dur (and at least
// minOps ops per client). All deltas come from client-side state read
// after the last Run returned.
func (e *serveEnv) measure(dur time.Duration, tr *tracer) window {
	type sample struct{ end, lat time.Duration }
	type tally struct {
		samples           []sample
		attempted, failed int
		firstErr          error
	}
	clients := make([]tally, e.spec.clients)

	h0, m0 := e.poolCounters()
	bytes0 := e.stats.BytesSent.Load() + e.stats.BytesReceived.Load()
	rounds0 := ot.BaseOTRounds()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	for client := range clients {
		wg.Add(1)
		go func(client int, t *tally) {
			defer wg.Done()
			failedInARow := 0
			for n := 0; n < e.cfg.sc.minOps || time.Since(start) < dur; n++ {
				t0 := time.Now()
				err := e.op(client, n, tr, -1)
				t1 := time.Now()
				t.attempted++
				if err == nil {
					t.samples = append(t.samples, sample{t1.Sub(start), t1.Sub(t0)})
					failedInARow = 0
					continue
				}
				t.failed++
				if t.firstErr == nil {
					t.firstErr = err
				}
				if failedInARow++; errors.Is(err, errClientDead) || failedInARow >= 16 {
					return // a broken system must not spin for the whole window
				}
			}
		}(client, &clients[client])
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	h1, m1 := e.poolCounters()
	w := window{
		bytes:    e.stats.BytesSent.Load() + e.stats.BytesReceived.Load() - bytes0,
		mallocs:  ms1.Mallocs - ms0.Mallocs,
		heapMB:   float64(ms1.HeapSys) / 1e6,
		rounds:   ot.BaseOTRounds() - rounds0,
		poolHits: h1 - h0,
		poolMiss: m1 - m0,
	}
	var all []sample
	for _, t := range clients {
		all = append(all, t.samples...)
		w.attempted, w.failed = w.attempted+t.attempted, w.failed+t.failed
		if w.firstErr == nil {
			w.firstErr = t.firstErr
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	for _, s := range all {
		w.ends = append(w.ends, s.end)
		w.latMS = append(w.latMS, ms(s.lat))
	}
	return w
}

func runServe(spec serveSpec, cfg *config) (*result, error) {
	r := newResult(spec.name)
	setups := cfg.sc.setups
	if cfg.trace {
		setups = 1
	}
	builds0 := circuit.PlanBuilds()
	w := spec.full()
	if cfg.sc.smoke {
		w = spec.smoke()
	}
	view := &accelView{name: w.Name, c: w.Build(), cfg: cfg}
	if err := view.sample(); err != nil {
		return nil, err
	}
	var env *serveEnv
	var setupS []float64
	for i := 0; i < setups; i++ {
		if env != nil {
			env.close()
			if err := view.sample(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if env, err = setupServe(spec, w, cfg); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer env.close()
	ands, _, _ := env.c.CountOps()
	route := "direct"
	if spec.churn {
		route = "behind the fleet proxy"
	}
	r.detail = append(r.detail, fmt.Sprintf("  circuit %s: %d AND gates, %d evaluator inputs; %d client connection(s), closed loop, loopback TCP; pool %d OTs; %d backend(s), %s",
		w.Name, ands, env.c.EvaluatorInputs, spec.clients, env.poolSize(), spec.backends, route))

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		win := env.measure(dur, nil)
		r.attempted, r.failed = win.attempted, win.failed
		if win.firstErr != nil {
			r.detail = append(r.detail, fmt.Sprintf("  first failure: %v", win.firstErr))
		}
		env.close()
		if err := view.sample(); err != nil {
			return nil, err
		}
		a := aggregate(view.passes)
		rates := segmentRates(win.ends, rateSegments)
		r.set("runs_per_s", median(rates))
		r.set("run_ms_p50", median(win.latMS))
		r.set("wire_bytes_per_run", ratio(float64(win.bytes), float64(win.attempted)))
		r.set("setup_s", median(setupS))
		r.set("sim_cycles_geomean", a.cyclesGeomean)
		r.set("compile_sim_s", a.compileSimS)
		r.detail = append(r.detail, fmt.Sprintf("  segment rates %.5g ops/s", rates))
		r.detail = append(r.detail, fmt.Sprintf("  run_ms_p90 %.3f ms (%d verified ops)   allocs_per_run %.1f count   heap_peak_mb %.1f MB   accelerator view: %d compile+simulate repetitions",
			percentile(win.latMS, 0.9), len(win.latMS), ratio(float64(win.mallocs), float64(win.attempted)), win.heapMB, len(view.passes)))
		return r, nil
	}

	// Traced pass: three quarters of the window untraced, one quarter
	// with spans around every top-level call; the difference in median
	// latency is the tracing overhead.
	plain := env.measure(dur*3/4, nil)
	traced := env.measure(dur/4, cfg.tr)
	r.attempted, r.failed = plain.attempted+traced.attempted, plain.failed+traced.failed
	ops := float64(r.attempted)
	builds := circuit.PlanBuilds() - builds0

	// Server and proxy counters are read only once the clients' sessions
	// are closed and the far side has caught up.
	env.closeSessions()
	env.quiesce()
	var hits, misses, runsFailed, refused float64
	for _, srv := range env.servers {
		st := srv.Stats()
		hits, misses = hits+float64(st.CacheHits), misses+float64(st.CacheMisses)
		runsFailed, refused = runsFailed+float64(st.RunsFailed), refused+float64(st.SessionsRefused)
	}
	if env.proxy != nil {
		st := env.proxy.Stats()
		r.set("fleet.failovers", float64(st.Failovers))
		r.set("fleet.bytes_spliced", ratio(float64(st.BytesClientToBackend+st.BytesBackendToClient), float64(st.SessionsRouted)))
	}
	r.set("circuit.plan_builds", float64(builds))
	r.set("circuit.peak_live_slots", float64(env.plan.PeakLive))
	r.set("ot.ots_per_run", float64(env.c.EvaluatorInputs))
	r.set("ot.pool_hit_ratio", ratio(float64(plain.poolHits+traced.poolHits), float64(plain.poolHits+traced.poolHits+plain.poolMiss+traced.poolMiss)))
	r.set("ot.base_rounds", ratio(float64(plain.rounds+traced.rounds), ops))
	r.set("server.cache_hit_ratio", ratio(hits, hits+misses))
	r.set("server.runs_failed", runsFailed)
	r.set("server.sessions_refused", refused)
	r.set("allocs_per_run", ratio(float64(plain.mallocs+traced.mallocs), ops))
	r.set("heap_peak_mb", traced.heapMB)
	r.set("run_ms_p90", percentile(plain.latMS, 0.9))
	r.set("trace_overhead_pct", 100*ratio(median(traced.latMS)-median(plain.latMS), median(plain.latMS)))

	if err := env.peel(r); err != nil {
		return nil, fmt.Errorf("%s: peel: %w", spec.name, err)
	}
	env.close()
	if err := view.sample(); err != nil {
		return nil, err
	}
	aggregate(view.passes).setLayer(r)
	r.detail = append(r.detail, fmt.Sprintf("  untraced window: %d ops, run_ms_p50 %.3f ms; traced window: %d ops, run_ms_p50 %.3f ms",
		plain.attempted, median(plain.latMS), traced.attempted, median(traced.latMS)))
	return r, nil
}
