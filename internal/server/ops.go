package server

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"haac/internal/aes128"
)

// Operations sidecar: a plain HTTP endpoint exporting a daemon's health
// and counters so a fleet scheduler can probe, scrape and drain it. It
// deliberately shares nothing with the binary 2PC listener — the
// session protocol stays byte-identical, and the ops port can be
// firewalled to the control plane.
//
//	GET /healthz  -> 200 "ok" while serving, 503 "draining" after Close
//	GET /readyz   -> 200 "ok" while routable, 503 with the reason when
//	                 not (haacd: "busy" at the session cap; haacfleet:
//	                 "no live backend"), 503 "draining" after Close
//	GET /metrics  -> Prometheus text exposition of the daemon's counters
//
// Metric names are stable: dashboards and the sharded fleet proxy key
// on them. /healthz is liveness (the process serves at all) and
// /readyz is routability: a server saturated at Config.MaxSessions is
// alive but would refuse the next session busy, so a fleet probe keyed
// on /readyz stops routing to it before a client pays the refusal.

// OpsHandler returns the HTTP handler serving /healthz, /readyz and
// /metrics. Use it directly to mount the endpoints into an existing
// mux; ServeOps runs it on its own listener.
func (d *Daemon) OpsHandler() http.Handler {
	plain := func(w http.ResponseWriter, code int, body string) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(code)
		fmt.Fprintln(w, body)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if d.isDraining() {
			plain(w, http.StatusServiceUnavailable, "draining")
			return
		}
		plain(w, http.StatusOK, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if d.isDraining() {
			plain(w, http.StatusServiceUnavailable, "draining")
		} else if why := d.opts.Ready(); why != "" {
			plain(w, http.StatusServiceUnavailable, why)
		} else {
			plain(w, http.StatusOK, "ok")
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(d.opts.Metrics()))
	})
	return mux
}

// ServeOps serves the operations endpoints on ln until Close; like
// Serve it returns nil after Close, DaemonConfig.ErrClosed when called
// after it, and the listener's error otherwise. Run it on a separate
// goroutine next to Serve. The listener registers with the same drain
// as the session listeners, so ServeOps never races Close over the
// listener set.
func (d *Daemon) ServeOps(ln net.Listener) error {
	if err := d.register(ln); err != nil {
		return err
	}
	defer d.unregister(ln)
	srv := &http.Server{Handler: d.OpsHandler(), ReadHeaderTimeout: 10 * time.Second}
	err := srv.Serve(ln)
	if d.isDraining() {
		return nil
	}
	return err
}

// MetricsWriter renders a Prometheus text exposition: each series
// family as its HELP and TYPE lines followed by its samples. The zero
// value is ready to use.
type MetricsWriter struct{ b strings.Builder }

// Family writes the HELP and TYPE lines of series name; typ is "gauge"
// or "counter".
func (m *MetricsWriter) Family(name, typ, help string) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample of series name, labelled label=value when
// label is non-empty.
func (m *MetricsWriter) Sample(name, label, value string, v float64) {
	if label != "" {
		fmt.Fprintf(&m.b, "%s{%s=%q} %g\n", name, label, value, v)
		return
	}
	fmt.Fprintf(&m.b, "%s %g\n", name, v)
}

// Gauge writes an unlabelled gauge family and its one sample.
func (m *MetricsWriter) Gauge(name, help string, v float64) {
	m.Family(name, "gauge", help)
	m.Sample(name, "", "", v)
}

// Counter writes an unlabelled counter family and its one sample.
func (m *MetricsWriter) Counter(name, help string, v float64) {
	m.Family(name, "counter", help)
	m.Sample(name, "", "", v)
}

// String returns the exposition written so far.
func (m *MetricsWriter) String() string { return m.b.String() }

// B2F is a flag's sample value: 1 when set, 0 when not.
func B2F(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// ready is the server's /readyz verdict while serving: busy at the
// session cap.
func (s *Server) ready() string {
	if s.saturated() {
		return "busy"
	}
	return ""
}

// metricsText renders the Prometheus text exposition of the counters.
func (s *Server) metricsText() string {
	st := s.Stats()
	var m MetricsWriter
	m.Family("haac_build_info", "gauge", "Constant 1; the aes label names the AES tier this process garbles on (vaes512, vaes, aesni or ttable).")
	m.Sample("haac_build_info", "aes", aes128.Backend(), 1)
	m.Gauge("haac_draining", "1 while the server is draining, 0 while serving.", B2F(s.isDraining()))
	m.Gauge("haac_sessions_active", "Currently open 2PC sessions.", float64(st.ActiveSessions))
	m.Counter("haac_sessions_total", "Sessions admitted since start.", float64(st.SessionsTotal))
	m.Counter("haac_sessions_refused_total", "Connections refused at the MaxSessions admission gate.", float64(st.SessionsRefused))
	m.Counter("haac_sessions_force_closed_total", "Sessions force-closed after the drain grace period.", float64(st.SessionsForceClosed))
	m.Counter("haac_runs_total", "Garbled runs served to completion.", float64(st.RunsServed))
	m.Counter("haac_runs_failed_total", "Runs that started but errored (dead peer, run deadline, protocol failure).", float64(st.RunsFailed))
	m.Counter("haac_accept_retries_total", "Transient Accept errors retried with backoff instead of tearing down the listener.", float64(st.AcceptRetries))
	m.Counter("haac_run_seconds_total", "Wall-clock seconds spent in completed runs; divide by haac_runs_total for mean latency.", time.Duration(st.RunNanos).Seconds())
	m.Counter("haac_bytes_out_total", "Transport bytes sent across all sessions.", float64(st.BytesOut))
	m.Counter("haac_bytes_in_total", "Transport bytes received across all sessions.", float64(st.BytesIn))
	m.Counter("haac_plan_cache_hits_total", "Plan cache requests answered by a completed build.", float64(st.CacheHits))
	m.Counter("haac_plan_cache_misses_total", "Plan cache requests that built, joined an in-flight build, or shared a failed one.", float64(st.CacheMisses))
	m.Counter("haac_plan_cache_evictions_total", "Plans evicted by the LRU bound.", float64(st.CacheEvictions))
	m.Counter("haac_integrity_failures_total", "Checksummed frames rejected on the server's inbound streams.", float64(st.IntegrityFailures))
	m.Counter("haac_runs_resumed_total", "Broken runs continued from their last verified chunk instead of replayed.", float64(st.RunsResumed))
	m.Counter("haac_sessions_panicked_total", "Sessions whose handler panicked and was contained without taking the server down.", float64(st.SessionsPanicked))
	m.Counter("haac_sessions_over_budget_total", "Sessions refused at admission by the per-session resource budgets.", float64(st.SessionsOverBudget))
	m.Counter("haac_runs_over_budget_total", "Runs aborted mid-transfer by the per-run byte budget.", float64(st.RunsOverBudget))
	m.Counter("haac_pool_hits_total", "Pooled-tier runs served from a precomputed OT pool.", float64(st.PoolHits))
	m.Counter("haac_pool_misses_total", "Pooled-tier runs that fell back to on-demand OT.", float64(st.PoolMisses))
	m.Counter("haac_pool_refills_total", "Completed OT-pool fills across all sessions: connect-time fills in the handshake plus in-run fills.", float64(st.PoolRefills))
	m.Counter("haac_table_send_seconds_total", "Seconds runs spent inside the transport's Write pushing tables.", time.Duration(st.TableSendNanos).Seconds())
	m.Counter("haac_table_drain_wait_seconds_total", "Wall seconds of runs' table streams, from the end of each run's input phase until its last table left; holds every table write, the rest is waiting for the garble goroutine.", time.Duration(st.TableDrainWaitNanos).Seconds())
	return m.String()
}
