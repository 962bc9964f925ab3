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
// while serving and 503 "draining" during shutdown, GET /readyz
// answers the same but 503 "busy" while at -max-sessions, and GET
// /metrics exports the serving counters (sessions, runs, bytes, plan-cache
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
// -no-integrity declines the checksummed-frame wire tier, which
// haac-run requests by default and library clients only when they set
// RunOptions.Integrity; they fall back to the legacy unframed wire.
// -no-pooled-ot likewise declines the precomputed-OT session tier
// (clients dialing with a pool size fall back to on-demand OT), and
// -max-pool caps how many banked OT correlations one pooled session
// may hold server-side (~64 bytes each with the room the bank keeps for
// in-run fills; 0 = the 65536 default).
// -tls-cert/-tls-key (a PEM pair, set together) wrap the session
// listener in TLS; clients then dial with RunOptions.TLS. The ops
// sidecar stays plain HTTP either way — firewall it to the control
// plane.
//
// SIGINT/SIGTERM drain gracefully: listeners stop accepting, idle
// sessions disconnect, in-flight runs get -drain-timeout to finish
// (stragglers are force-closed; a negative timeout waits for them),
// then the daemon reports its serving totals and exits. The flags and
// lifecycle haacd shares with haacfleet live in cmd/internal/daemon.
package main

import (
	"fmt"
	"io"
	"strings"

	"haac/cmd/internal/daemon"
	"haac/internal/circuit"
	"haac/internal/server"
	"haac/internal/workloads"
)

func main() { daemon.Main(run) }

// run is the testable entry point: it parses args, serves until stop
// closes (or a listener fails), and returns the process exit status.
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	cmd := daemon.New("haacd", "127.0.0.1:9100", stdout, stderr)
	fs := cmd.Flags
	names := fs.String("workloads", "all", "comma-separated workload names to serve (small VIP + micro suites), or all")
	value := fs.Uint64("value", 0, "garbler input value, packed little-endian into each circuit's garbler bits")
	cacheSize := fs.Int("plan-cache", 0, "plan cache entries (0 = one per served circuit)")
	maxSessions := fs.Int("max-sessions", 0, "concurrent session cap; excess connections are refused busy at handshake (0 = unlimited)")
	runTimeout := fs.Duration("run-timeout", 0, "per-run deadline; a peer stalling mid-run past it loses the session (0 = none)")
	allowInsecure := fs.Bool("allow-insecure-ot", false, "accept sessions requesting the choice-revealing insecure OT (benchmarks only)")
	noIntegrity := fs.Bool("no-integrity", false, "decline the checksummed-frame wire tier; integrity clients fall back to the legacy wire")
	noPooled := fs.Bool("no-pooled-ot", false, "decline the precomputed-OT session tier; pooled clients fall back to on-demand OT")
	maxPool := fs.Int("max-pool", 0, "max banked OT correlations per pooled session, ~64 bytes each with room for fills (0 = 65536 default)")
	maxCircuitBytes := fs.Int64("max-circuit-bytes", 0, "refuse circuits whose labels and tables would hold more resident bytes than this (0 = unlimited)")
	maxRunBytes := fs.Int64("max-run-bytes", 0, "per-run transport byte budget; breaching runs are cut off with a typed refusal (0 = unlimited)")
	if code, ok := cmd.Parse(args); !ok {
		return code
	}

	specs, err := specsFor(*names, *value)
	if err != nil {
		return cmd.Fail(2, err)
	}
	srv, err := server.New(server.Config{
		Circuits:         specs,
		PlanCacheSize:    *cacheSize,
		MaxSessions:      *maxSessions,
		RunTimeout:       *runTimeout,
		DrainTimeout:     cmd.DrainTimeout,
		AllowInsecureOT:  *allowInsecure,
		TLS:              cmd.TLS,
		DisableIntegrity: *noIntegrity,
		DisablePooledOT:  *noPooled,
		MaxPoolSize:      *maxPool,
		MaxCircuitBytes:  *maxCircuitBytes,
		MaxRunBytes:      *maxRunBytes,
	})
	if err != nil {
		return cmd.Fail(2, err)
	}
	detail := make([]string, len(specs))
	for i, spec := range specs {
		d, _ := srv.Digest(spec.ID)
		detail[i] = fmt.Sprintf("  %-16s %d gates  sha256:%x", spec.ID, len(spec.Circuit.Gates), d[:8])
	}
	return cmd.Serve(srv, stop, fmt.Sprintf("serving %d circuits", len(specs)), detail, func() string {
		st := srv.Stats()
		return fmt.Sprintf("served %d runs over %d sessions (%d bytes out, cache %d/%d hit/miss, %d refused, %d force-closed)",
			st.RunsServed, st.SessionsTotal, st.BytesOut, st.CacheHits, st.CacheMisses, st.SessionsRefused, st.SessionsForceClosed)
	})
}

// specsFor resolves the served circuit set: every named workload from
// the small VIP + micro suites, with the garbler's input bits packed
// from value once and reused across runs.
func specsFor(names string, value uint64) ([]server.CircuitSpec, error) {
	suite := append(workloads.VIPSuiteSmall(), workloads.MicroSuite()...)
	var picked []workloads.Workload
	if strings.EqualFold(names, "all") {
		picked = suite
	} else {
		for _, n := range strings.Split(names, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			w, err := workloads.Find(n, true)
			if err != nil {
				return nil, err
			}
			picked = append(picked, w)
		}
	}
	if len(picked) == 0 {
		var all []string
		for _, w := range suite {
			all = append(all, w.Name)
		}
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
