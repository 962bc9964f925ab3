package server

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"haac/internal/aes128"
)

// Operations sidecar: a plain HTTP endpoint exporting the server's
// health and counters so a fleet scheduler can probe, scrape and drain
// haacd processes. It deliberately shares nothing with the binary 2PC
// listener — the session protocol stays byte-identical, and the ops
// port can be firewalled to the control plane.
//
//	GET /healthz  -> 200 "ok" while serving, 503 "draining" after Close
//	GET /readyz   -> 200 "ok" while routable, 503 "busy" at the session
//	                 cap, 503 "draining" after Close
//	GET /metrics  -> Prometheus text exposition of Stats + plan cache
//
// Metric names are stable: dashboards and the sharded fleet proxy key
// on them. /healthz is liveness (the process serves at all) and
// /readyz is routability: a server saturated at Config.MaxSessions is
// alive but would refuse the next session busy, so a fleet probe keyed
// on /readyz stops routing to it before a client pays the refusal.

// OpsHandler returns the HTTP handler serving /healthz, /readyz and
// /metrics. Use it directly to mount the endpoints into an existing
// mux; ServeOps runs it on its own listener.
func (s *Server) OpsHandler() http.Handler {
	plain := func(w http.ResponseWriter, code int, body string) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(code)
		fmt.Fprintln(w, body)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.isDraining() {
			plain(w, http.StatusServiceUnavailable, "draining")
			return
		}
		plain(w, http.StatusOK, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case s.isDraining():
			plain(w, http.StatusServiceUnavailable, "draining")
		case s.cfg.MaxSessions > 0 && s.active.Load() >= int64(s.cfg.MaxSessions):
			plain(w, http.StatusServiceUnavailable, "busy")
		default:
			plain(w, http.StatusOK, "ok")
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(s.metricsText()))
	})
	return mux
}

// ServeOps serves the operations endpoints on ln until the server
// closes; like Serve it returns nil after Close and the listener's
// error otherwise. Run it on a separate goroutine next to Serve. The
// listener registers through the same drain-aware lifecycle as the
// session listeners, so ServeOps never races Close over the draining
// flag or the listener set.
func (s *Server) ServeOps(ln net.Listener) error {
	if err := s.registerListener(ln); err != nil {
		return err
	}
	defer s.unregisterListener(ln)
	srv := &http.Server{Handler: s.OpsHandler(), ReadHeaderTimeout: 10 * time.Second}
	err := srv.Serve(ln)
	if s.isDraining() {
		return nil
	}
	return err
}

// metricsText renders the Prometheus text exposition of the counters.
func (s *Server) metricsText() string {
	st := s.Stats()
	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	fmt.Fprintf(&b, "# HELP haac_build_info Constant 1; the aes label names the AES tier this process garbles on (vaes512, vaes, aesni or ttable).\n# TYPE haac_build_info gauge\nhaac_build_info{aes=%q} 1\n", aes128.Backend())
	gauge("haac_draining", "1 while the server is draining, 0 while serving.", b2f(s.isDraining()))
	gauge("haac_sessions_active", "Currently open 2PC sessions.", float64(st.ActiveSessions))
	counter("haac_sessions_total", "Sessions admitted since start.", float64(st.SessionsTotal))
	counter("haac_sessions_refused_total", "Connections refused at the MaxSessions admission gate.", float64(st.SessionsRefused))
	counter("haac_sessions_force_closed_total", "Sessions force-closed after the drain grace period.", float64(st.SessionsForceClosed))
	counter("haac_runs_total", "Garbled runs served to completion.", float64(st.RunsServed))
	counter("haac_runs_failed_total", "Runs that started but errored (dead peer, run deadline, protocol failure).", float64(st.RunsFailed))
	counter("haac_accept_retries_total", "Transient Accept errors retried with backoff instead of tearing down the listener.", float64(st.AcceptRetries))
	counter("haac_run_seconds_total", "Wall-clock seconds spent in completed runs; divide by haac_runs_total for mean latency.", time.Duration(st.RunNanos).Seconds())
	counter("haac_bytes_out_total", "Transport bytes sent across all sessions.", float64(st.BytesOut))
	counter("haac_bytes_in_total", "Transport bytes received across all sessions.", float64(st.BytesIn))
	counter("haac_plan_cache_hits_total", "Plan cache requests answered by a completed build.", float64(st.CacheHits))
	counter("haac_plan_cache_misses_total", "Plan cache requests that built, joined an in-flight build, or shared a failed one.", float64(st.CacheMisses))
	counter("haac_plan_cache_evictions_total", "Plans evicted by the LRU bound.", float64(st.CacheEvictions))
	counter("haac_integrity_failures_total", "Checksummed frames rejected on the server's inbound streams.", float64(st.IntegrityFailures))
	counter("haac_runs_resumed_total", "Broken runs continued from their last verified chunk instead of replayed.", float64(st.RunsResumed))
	counter("haac_sessions_panicked_total", "Sessions whose handler panicked and was contained without taking the server down.", float64(st.SessionsPanicked))
	counter("haac_sessions_over_budget_total", "Sessions refused at admission by the per-session resource budgets.", float64(st.SessionsOverBudget))
	counter("haac_runs_over_budget_total", "Runs aborted mid-transfer by the per-run byte budget.", float64(st.RunsOverBudget))
	counter("haac_pool_hits_total", "Pooled-tier runs served from a precomputed OT pool.", float64(st.PoolHits))
	counter("haac_pool_misses_total", "Pooled-tier runs that fell back to on-demand OT.", float64(st.PoolMisses))
	counter("haac_pool_refills_total", "Completed OT-pool fills across all sessions: connect-time fills in the handshake plus in-run fills.", float64(st.PoolRefills))
	counter("haac_table_send_seconds_total", "Seconds runs spent inside the transport's Write pushing tables.", time.Duration(st.TableSendNanos).Seconds())
	counter("haac_table_drain_wait_seconds_total", "Wall seconds of runs' table streams, from the end of each run's input phase until its last table left; holds every table write, the rest is waiting for the garble goroutine.", time.Duration(st.TableDrainWaitNanos).Seconds())
	return b.String()
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
