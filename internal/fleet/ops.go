package fleet

import (
	"sort"

	"haac/internal/server"
)

// The proxy's operations sidecar is the embedded server.Daemon's, as
// haacd's is: /healthz for liveness, /readyz for routability, /metrics
// for Prometheus text exposition of Stats. This file gives it the
// proxy's readiness verdict and metrics.

// ready is the proxy's /readyz verdict while serving: routable while at
// least one backend is.
func (f *Fleet) ready() string {
	if f.Stats().LiveBackends == 0 {
		return "no live backend"
	}
	return ""
}

// MetricsText renders the Prometheus text exposition of the fleet's
// counters. Aggregates use the haac_fleet_ prefix; per-backend series
// carry a backend label.
func (f *Fleet) MetricsText() string {
	st := f.Stats()
	var m server.MetricsWriter
	m.Gauge("haac_fleet_backends_live", "Backends currently routable.", float64(st.LiveBackends))
	m.Gauge("haac_fleet_backends_total", "Backends configured.", float64(len(st.Backends)))
	m.Gauge("haac_fleet_sessions_active", "Sessions currently spliced to a backend.", float64(st.ActiveSessions))
	m.Counter("haac_fleet_sessions_routed_total", "Sessions relayed to a backend.", float64(st.SessionsRouted))
	m.Counter("haac_fleet_sessions_pooled_total", "Routed sessions granted the precomputed-OT tier by their backend.", float64(st.SessionsPooled))
	m.Counter("haac_fleet_sessions_refused_total", "Sessions refused because no backend was routable.", float64(st.SessionsRefused))
	m.Counter("haac_fleet_failovers_total", "Sessions routed past their rendezvous-first backend.", float64(st.Failovers))
	m.Counter("haac_fleet_dial_failures_total", "Failed backend dials.", float64(st.DialFailures))
	m.Counter("haac_fleet_backend_refusals_total", "Busy/draining refusals relayed from backends to clients.", float64(st.BackendRefusals))
	m.Counter("haac_fleet_ejections_total", "Circuit-breaker ejections.", float64(st.Ejections))
	m.Counter("haac_fleet_readmissions_total", "Circuit-breaker readmissions (half-open trial or probe recovery).", float64(st.Readmissions))
	m.Counter("haac_fleet_sessions_force_closed_total", "Splices force-closed after the drain grace period.", float64(st.SessionsForceClosed))
	m.Counter("haac_fleet_sessions_panicked_total", "Sessions whose routing or splice goroutine panicked and was contained.", float64(st.SessionsPanicked))
	m.Counter("haac_fleet_accept_retries_total", "Transient Accept errors retried with backoff instead of tearing down the listener.", float64(st.AcceptRetries))
	m.Counter("haac_fleet_bytes_client_to_backend_total", "Bytes spliced client to backend.", float64(st.BytesClientToBackend))
	m.Counter("haac_fleet_bytes_backend_to_client_total", "Bytes spliced backend to client.", float64(st.BytesBackendToClient))

	backends := append([]BackendStats(nil), st.Backends...)
	sort.Slice(backends, func(i, j int) bool { return backends[i].Addr < backends[j].Addr })
	m.Family("haac_fleet_backend_up", "gauge", "1 while the backend is routable, 0 otherwise.")
	for _, bs := range backends {
		m.Sample("haac_fleet_backend_up", "backend", bs.Addr, server.B2F(bs.Routable))
	}
	m.Family("haac_fleet_backend_sessions_routed_total", "counter", "Sessions relayed to the backend.")
	for _, bs := range backends {
		m.Sample("haac_fleet_backend_sessions_routed_total", "backend", bs.Addr, float64(bs.SessionsRouted))
	}
	m.Family("haac_fleet_backend_failures_total", "counter", "Dial/handshake-relay failures charged to the backend.")
	for _, bs := range backends {
		m.Sample("haac_fleet_backend_failures_total", "backend", bs.Addr, float64(bs.Failures))
	}
	return m.String()
}
