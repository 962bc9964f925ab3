// Command haacd is the serving garbler daemon: one process plays the
// garbler for many concurrent evaluator sessions over TCP, sharing
// precompiled execution plans and pooled garbling runners across them.
// Evaluators connect with `haac-run -role client` (or haac.Dial) using
// the workload name as the circuit id; the session handshake verifies a
// SHA-256 digest of the circuit, so both sides must build the same
// workload.
//
// Example — serve the millionaires' circuit and the small VIP suite
// with the operations sidecar on :9090:
//
//	haacd -listen :9100 -ops :9090 -workloads Million-8,DotProd-S -value 200
//
// The -ops listener speaks plain HTTP: GET /healthz answers 200 "ok"
// while serving and 503 "draining" during shutdown, and GET /metrics
// exports the serving counters (sessions, runs, bytes, plan-cache
// hit/miss/eviction, refusals, run latency) in Prometheus text format.
// -max-sessions sheds excess connections at handshake with a typed
// busy refusal; -run-timeout bounds each garbled run so a stalled peer
// cannot pin a session; -allow-insecure-ot must be set explicitly
// before the daemon accepts sessions requesting the choice-revealing
// insecure OT (benchmarks only — never enable it facing real peers).
// -max-circuit-bytes and -max-run-bytes set per-session resource
// budgets: oversized circuits are refused at handshake and runs that
// outgrow their declared stream size are cut off, both with typed
// refusals, so one greedy session cannot starve the rest.
// -no-integrity declines the checksummed-frame wire tier that clients
// request by default; they fall back to the legacy unframed wire.
// -no-pooled-ot likewise declines the precomputed-OT session tier
// (clients dialing with a pool size fall back to on-demand OT), and
// -max-pool caps how many banked OT correlations one pooled session
// may hold server-side (~32 bytes each; 0 = the 65536 default).
// -tls-cert/-tls-key (a PEM pair, set together) wrap the session
// listener in TLS; clients then dial with RunOptions.TLS. The ops
// sidecar stays plain HTTP either way — firewall it to the control
// plane.
//
// SIGINT/SIGTERM drain gracefully: listeners stop accepting, idle
// sessions disconnect, in-flight runs get -drain-timeout to finish
// (stragglers are force-closed), then the daemon reports its serving
// totals and exits.
package main

import (
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"haac/internal/aes128"
	"haac/internal/circuit"
	"haac/internal/server"
	"haac/internal/workloads"
)

func main() {
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		close(stop)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// run is the testable entry point: it parses args, serves until stop
// closes (or the listener fails), and returns the process exit status.
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("haacd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:9100", "listen address")
	ops := fs.String("ops", "", "operations HTTP address serving /healthz and /metrics (empty = disabled)")
	names := fs.String("workloads", "all", "comma-separated workload names to serve (small VIP + micro suites), or all")
	value := fs.Uint64("value", 0, "garbler input value, packed little-endian into each circuit's garbler bits")
	workers := fs.Int("workers", 0, "garbling workers per session (0 = sequential)")
	cacheSize := fs.Int("plan-cache", 0, "plan cache entries (0 = one per served circuit)")
	maxSessions := fs.Int("max-sessions", 0, "concurrent session cap; excess connections are refused busy at handshake (0 = unlimited)")
	runTimeout := fs.Duration("run-timeout", 0, "per-run deadline; a peer stalling mid-run past it loses the session (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 0, "shutdown grace for in-flight runs before force-close (0 = 30s default)")
	allowInsecure := fs.Bool("allow-insecure-ot", false, "accept sessions requesting the choice-revealing insecure OT (benchmarks only)")
	noIntegrity := fs.Bool("no-integrity", false, "decline the checksummed-frame wire tier; integrity clients fall back to the legacy wire")
	noPooled := fs.Bool("no-pooled-ot", false, "decline the precomputed-OT session tier; pooled clients fall back to on-demand OT")
	maxPool := fs.Int("max-pool", 0, "max banked OT correlations per pooled session, ~32 bytes each (0 = 65536 default)")
	maxCircuitBytes := fs.Int64("max-circuit-bytes", 0, "refuse circuits whose labels and tables would hold more resident bytes than this (0 = unlimited)")
	maxRunBytes := fs.Int64("max-run-bytes", 0, "per-run transport byte budget; breaching runs are cut off with a typed refusal (0 = unlimited)")
	tlsCert := fs.String("tls-cert", "", "PEM certificate for TLS on the session listener (requires -tls-key; empty = plaintext)")
	tlsKey := fs.String("tls-key", "", "PEM private key for TLS on the session listener (requires -tls-cert)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	specs, err := specsFor(*names, *value)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	tlsCfg, err := tlsFor(*tlsCert, *tlsKey)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	srv, err := server.New(server.Config{
		Circuits:         specs,
		PlanCacheSize:    *cacheSize,
		Workers:          *workers,
		MaxSessions:      *maxSessions,
		RunTimeout:       *runTimeout,
		DrainTimeout:     *drainTimeout,
		AllowInsecureOT:  *allowInsecure,
		TLS:              tlsCfg,
		DisableIntegrity: *noIntegrity,
		DisablePooledOT:  *noPooled,
		MaxPoolSize:      *maxPool,
		MaxCircuitBytes:  *maxCircuitBytes,
		MaxRunBytes:      *maxRunBytes,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var opsLn net.Listener
	if *ops != "" {
		opsLn, err = net.Listen("tcp", *ops)
		if err != nil {
			ln.Close()
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	proto := "plaintext"
	if tlsCfg != nil {
		proto = "TLS"
	}
	fmt.Fprintf(stdout, "haacd: serving %d circuits on %s (%s), aes128 backend %s\n", len(specs), ln.Addr(), proto, aes128.Backend())
	if opsLn != nil {
		fmt.Fprintf(stdout, "haacd: ops endpoints on http://%s (/healthz, /metrics)\n", opsLn.Addr())
	}
	for _, spec := range specs {
		d, _ := srv.Digest(spec.ID)
		fmt.Fprintf(stdout, "  %-16s %d gates  sha256:%x\n", spec.ID, len(spec.Circuit.Gates), d[:8])
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	// A nil channel never delivers, so the select below ignores the
	// sidecar when -ops is unset.
	var opsErrc chan error
	if opsLn != nil {
		opsErrc = make(chan error, 1)
		go func() { opsErrc <- srv.ServeOps(opsLn) }()
	}
	select {
	case err := <-errc:
		// Serve only returns on its own when the listener breaks.
		srv.Close()
		fmt.Fprintln(stderr, err)
		return 1
	case err := <-opsErrc:
		// ServeOps only returns on its own when the ops listener breaks.
		srv.Close()
		fmt.Fprintln(stderr, err)
		return 1
	case <-stop:
		fmt.Fprintln(stdout, "haacd: draining sessions")
		srv.Close()
		<-errc
		st := srv.Stats()
		fmt.Fprintf(stdout, "haacd: served %d runs over %d sessions (%d bytes out, cache %d/%d hit/miss, %d refused, %d force-closed)\n",
			st.RunsServed, st.SessionsTotal, st.BytesOut, st.CacheHits, st.CacheMisses, st.SessionsRefused, st.SessionsForceClosed)
		return 0
	}
}

// tlsFor loads the listener TLS configuration from a PEM pair; both
// flags empty keeps the plaintext default.
func tlsFor(certFile, keyFile string) (*tls.Config, error) {
	if certFile == "" && keyFile == "" {
		return nil, nil
	}
	if certFile == "" || keyFile == "" {
		return nil, errors.New("-tls-cert and -tls-key must be set together")
	}
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, fmt.Errorf("loading TLS key pair: %w", err)
	}
	return &tls.Config{Certificates: []tls.Certificate{cert}}, nil
}

// specsFor resolves the served circuit set: every named workload from
// the small VIP + micro suites, with the garbler's input bits packed
// from value once and reused across runs.
func specsFor(names string, value uint64) ([]server.CircuitSpec, error) {
	suite := append(workloads.VIPSuiteSmall(), workloads.MicroSuite()...)
	byName := map[string]workloads.Workload{}
	var all []string
	for _, w := range suite {
		byName[strings.ToLower(w.Name)] = w
		all = append(all, w.Name)
	}
	var picked []workloads.Workload
	if strings.EqualFold(names, "all") {
		picked = suite
	} else {
		for _, n := range strings.Split(names, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			w, ok := byName[strings.ToLower(n)]
			if !ok {
				return nil, fmt.Errorf("unknown workload %q; available: %s", n, strings.Join(all, ", "))
			}
			picked = append(picked, w)
		}
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("no workloads selected; available: %s", strings.Join(all, ", "))
	}
	specs := make([]server.CircuitSpec, len(picked))
	for i, w := range picked {
		c := w.Build()
		bits := circuit.UintToBools(value, c.GarblerInputs)
		specs[i] = server.CircuitSpec{
			ID:      w.Name,
			Circuit: c,
			Inputs:  func() []bool { return bits },
		}
	}
	return specs, nil
}
