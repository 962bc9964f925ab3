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
// static-fleet case. SIGINT/SIGTERM drain the proxy itself: listeners
// stop accepting, active splices get -drain-timeout to finish,
// stragglers are force-closed (a negative timeout waits for them), then
// the daemon reports its routing totals and exits. The flags and
// lifecycle haacfleet shares with haacd live in cmd/internal/daemon.
package main

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"haac/cmd/internal/daemon"
	"haac/internal/fleet"
)

func main() { daemon.Main(run) }

// run is the testable entry point: it parses args, proxies until stop
// closes (or a listener fails), and returns the process exit status.
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	cmd := daemon.New("haacfleet", "127.0.0.1:9200", stdout, stderr)
	fs := cmd.Flags
	backends := fs.String("backends", "", "comma-separated backend list, each addr or addr=opsaddr (ops address enables active probing)")
	probeInterval := fs.Duration("probe-interval", 0, "active health-probe period (0 = 500ms default, negative = disabled)")
	probeTimeout := fs.Duration("probe-timeout", 0, "per-probe HTTP timeout (0 = 2s default)")
	failThreshold := fs.Int("fail-threshold", 0, "consecutive backend failures before circuit-breaker ejection (0 = 3 default)")
	reopenAfter := fs.Duration("reopen-after", 0, "ejection period before half-open trials (0 = 1s default)")
	dialTimeout := fs.Duration("dial-timeout", 0, "per-backend dial timeout (0 = 5s default)")
	idleTimeout := fs.Duration("idle-timeout", 0, "per-direction splice idle deadline; a session moving no bytes past it is torn down (0 = none)")
	if code, ok := cmd.Parse(args); !ok {
		return code
	}

	specs, err := parseBackends(*backends)
	if err != nil {
		return cmd.Fail(2, err)
	}
	f, err := fleet.New(fleet.Config{
		Backends:      specs,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		FailThreshold: *failThreshold,
		ReopenAfter:   *reopenAfter,
		DialTimeout:   *dialTimeout,
		IdleTimeout:   *idleTimeout,
		DrainTimeout:  cmd.DrainTimeout,
		TLS:           cmd.TLS,
	})
	if err != nil {
		return cmd.Fail(2, err)
	}
	detail := make([]string, len(specs))
	for i, b := range specs {
		probe := "unprobed"
		if b.Ops != "" {
			probe = "probing http://" + b.Ops
		}
		detail[i] = fmt.Sprintf("  %-24s %s", b.Addr, probe)
	}
	return cmd.Serve(f, stop, fmt.Sprintf("fronting %d backends", len(specs)), detail, func() string {
		st := f.Stats()
		return fmt.Sprintf("routed %d sessions (%d refused, %d failovers, %d dial failures, %d ejections, %d force-closed)",
			st.SessionsRouted, st.SessionsRefused, st.Failovers, st.DialFailures, st.Ejections, st.SessionsForceClosed)
	})
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
