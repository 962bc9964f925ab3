// Command haacfleet is the digest-sharded front proxy daemon: one
// process fronting a fleet of haacd backends. Evaluators dial the proxy
// exactly as they would a single haacd (haac.Dial / haac-run -role
// client); the proxy routes each session to a backend by
// rendezvous-hashing the circuit digest — repeat sessions of a circuit
// land on the backend whose plan cache is already warm — and splices
// bytes for the life of the session.
//
// Example — front two local backends, probing their ops endpoints, with
// the proxy's own ops sidecar on :9091:
//
//	haacfleet -listen :9200 -ops :9091 \
//	    -backends 127.0.0.1:9100=127.0.0.1:9090,127.0.0.1:9101=127.0.0.1:9092
//
// Each -backends element is addr or addr=opsaddr; with an ops address
// the proxy actively probes GET /readyz (falling back to /healthz) every
// -probe-interval so saturated, draining or dead backends stop
// receiving routes. Independently, a passive circuit breaker ejects a
// backend after -fail-threshold consecutive dial or handshake failures
// and readmits it via half-open trials or a succeeding probe. The
// proxy's -ops listener serves /healthz, /readyz (503 until at least
// one backend is routable) and Prometheus /metrics with per-backend
// series.
//
// Rolling restarts of individual backends go through the fleet API
// (haac.NewFleet + Fleet.Drain/Undrain); the daemon covers the
// static-fleet case. SIGINT/SIGTERM drain the proxy itself: listeners stop accepting,
// active splices get -drain-timeout to finish, stragglers are
// force-closed, then the daemon reports its routing totals and exits.
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
	"haac/internal/fleet"
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

// run is the testable entry point: it parses args, proxies until stop
// closes (or a listener fails), and returns the process exit status.
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("haacfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:9200", "listen address for client sessions")
	ops := fs.String("ops", "", "operations HTTP address serving /healthz, /readyz and /metrics (empty = disabled)")
	backends := fs.String("backends", "", "comma-separated backend list, each addr or addr=opsaddr (ops address enables active probing)")
	probeInterval := fs.Duration("probe-interval", 0, "active health-probe period (0 = 500ms default, negative = disabled)")
	probeTimeout := fs.Duration("probe-timeout", 0, "per-probe HTTP timeout (0 = 2s default)")
	failThreshold := fs.Int("fail-threshold", 0, "consecutive backend failures before circuit-breaker ejection (0 = 3 default)")
	reopenAfter := fs.Duration("reopen-after", 0, "ejection period before half-open trials (0 = 1s default)")
	dialTimeout := fs.Duration("dial-timeout", 0, "per-backend dial timeout (0 = 5s default)")
	idleTimeout := fs.Duration("idle-timeout", 0, "per-direction splice idle deadline; a session moving no bytes past it is torn down (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 0, "shutdown grace for active sessions before force-close (0 = 30s default)")
	tlsCert := fs.String("tls-cert", "", "PEM certificate for TLS on the client listener (requires -tls-key; empty = plaintext)")
	tlsKey := fs.String("tls-key", "", "PEM private key for TLS on the client listener (requires -tls-cert)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	specs, err := parseBackends(*backends)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	tlsCfg, err := tlsFor(*tlsCert, *tlsKey)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	f, err := fleet.New(fleet.Config{
		Backends:      specs,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		FailThreshold: *failThreshold,
		ReopenAfter:   *reopenAfter,
		DialTimeout:   *dialTimeout,
		IdleTimeout:   *idleTimeout,
		DrainTimeout:  *drainTimeout,
		TLS:           tlsCfg,
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
	fmt.Fprintf(stdout, "haacfleet: fronting %d backends on %s (%s), aes128 backend %s\n", len(specs), ln.Addr(), proto, aes128.Backend())
	if opsLn != nil {
		fmt.Fprintf(stdout, "haacfleet: ops endpoints on http://%s (/healthz, /readyz, /metrics)\n", opsLn.Addr())
	}
	for _, b := range specs {
		probe := "unprobed"
		if b.Ops != "" {
			probe = "probing http://" + b.Ops
		}
		fmt.Fprintf(stdout, "  %-24s %s\n", b.Addr, probe)
	}

	errc := make(chan error, 1)
	go func() { errc <- f.Serve(ln) }()
	// A nil channel never delivers, so the select below ignores the
	// sidecar when -ops is unset.
	var opsErrc chan error
	if opsLn != nil {
		opsErrc = make(chan error, 1)
		go func() { opsErrc <- f.ServeOps(opsLn) }()
	}
	select {
	case err := <-errc:
		// Serve only returns on its own when the listener breaks.
		f.Close()
		fmt.Fprintln(stderr, err)
		return 1
	case err := <-opsErrc:
		// ServeOps only returns on its own when the ops listener breaks.
		f.Close()
		fmt.Fprintln(stderr, err)
		return 1
	case <-stop:
		fmt.Fprintln(stdout, "haacfleet: draining sessions")
		f.Close()
		<-errc
		st := f.Stats()
		fmt.Fprintf(stdout, "haacfleet: routed %d sessions (%d refused, %d failovers, %d dial failures, %d ejections, %d force-closed)\n",
			st.SessionsRouted, st.SessionsRefused, st.Failovers, st.DialFailures, st.Ejections, st.SessionsForceClosed)
		return 0
	}
}

// parseBackends resolves the -backends list: comma-separated elements,
// each addr or addr=opsaddr.
func parseBackends(list string) ([]fleet.Backend, error) {
	var specs []fleet.Backend
	for _, elem := range strings.Split(list, ",") {
		elem = strings.TrimSpace(elem)
		if elem == "" {
			continue
		}
		addr, opsAddr, hasOps := strings.Cut(elem, "=")
		addr, opsAddr = strings.TrimSpace(addr), strings.TrimSpace(opsAddr)
		if addr == "" || (hasOps && opsAddr == "") {
			return nil, fmt.Errorf("malformed -backends element %q (want addr or addr=opsaddr)", elem)
		}
		specs = append(specs, fleet.Backend{Addr: addr, Ops: opsAddr})
	}
	if len(specs) == 0 {
		return nil, errors.New("no backends configured; set -backends addr[,addr=opsaddr...]")
	}
	return specs, nil
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
