package fleet

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Per-backend health state. Two independent signals gate routing:
//
//   - The passive circuit breaker: consecutive dial/handshake-relay
//     failures eject the backend (ejected=true). After ReopenAfter one
//     half-open trial session at a time may probe it; a trial success
//     readmits, a trial failure re-ejects with a fresh reopen clock.
//   - The active prober: a periodic GET of the backend's ops endpoint
//     (/readyz with a /healthz fallback) sets probeOK. A failing probe
//     stops routing without waiting for a client to pay for the
//     failure; a succeeding probe also readmits an ejected backend, so
//     recovery does not have to burn a client session as the trial.
//
// The administrative drain flag (Drain/Undrain) overrides both: a
// drained backend is unroutable until the operator readmits it.
type backend struct {
	spec Backend

	mu       sync.Mutex
	drained  bool // administrative: Drain set, Undrain clears
	ejected  bool // breaker open
	halfOpen bool // a half-open trial session is in flight
	reopenAt time.Time
	probeOK  bool                  // last active-probe verdict (true when unprobed)
	fails    int                   // consecutive failures toward FailThreshold
	active   int                   // sessions currently spliced to this backend
	idle     chan struct{}         // closed when a drained backend's active reaches 0
	conns    map[net.Conn]struct{} // client conns of the spliced sessions

	routed     atomic.Uint64
	failures   atomic.Uint64
	refusals   atomic.Uint64
	probeFails atomic.Uint64
}

// admit decides whether the next session may route to this backend and,
// when it may, reserves an active slot (released by release). The
// second return is the admission verdict; the first reports that this
// admission is a half-open breaker trial, so the eventual
// reportSuccess/reportFailure closes or re-opens the breaker.
func (b *backend) admit(now time.Time) (trial, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.drained {
		return false, false
	}
	if b.ejected {
		if b.halfOpen || now.Before(b.reopenAt) {
			return false, false
		}
		b.halfOpen = true
		b.active++
		return true, true
	}
	if !b.probeOK {
		return false, false
	}
	b.active++
	return false, true
}

// release returns the active slot reserved by admit.
func (b *backend) release() {
	b.mu.Lock()
	b.leave()
	b.mu.Unlock()
}

// leave returns one active slot with b.mu held; the last one out wakes
// a Drain waiting for the backend to go idle.
func (b *backend) leave() {
	b.active--
	if b.active == 0 && b.idle != nil {
		close(b.idle)
		b.idle = nil
	}
}

// drain takes b out of the routing set and returns a channel that is
// closed once it has no active sessions.
func (b *backend) drain() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drained = true
	if b.idle == nil {
		b.idle = make(chan struct{})
	}
	idle := b.idle
	if b.active == 0 {
		close(idle)
		b.idle = nil
	}
	return idle
}

// reportSuccess records a completed handshake relay: the breaker
// closes, the failure streak resets. The active slot stays held until
// the splice releases it.
func (b *backend) reportSuccess(f *Fleet) {
	b.mu.Lock()
	b.fails = 0
	b.halfOpen = false
	if b.ejected {
		b.ejected = false
		b.mu.Unlock()
		f.readmissions.Add(1)
		return
	}
	b.mu.Unlock()
}

// reportFailure records a dial or handshake-relay failure and returns
// the active slot. A failed half-open trial re-ejects immediately; a
// closed breaker ejects once the streak reaches FailThreshold.
func (b *backend) reportFailure(f *Fleet, trial bool) {
	b.failures.Add(1)
	b.mu.Lock()
	b.leave()
	b.fails++
	if trial {
		b.halfOpen = false
		b.reopenAt = time.Now().Add(f.cfg.ReopenAfter)
		b.mu.Unlock()
		return
	}
	if !b.ejected && b.fails >= f.cfg.FailThreshold {
		b.ejected = true
		b.reopenAt = time.Now().Add(f.cfg.ReopenAfter)
		b.mu.Unlock()
		f.ejections.Add(1)
		return
	}
	b.mu.Unlock()
}

// reportRefusal records a relayed busy/draining (or other typed)
// refusal and returns the active slot. The backend is alive — it spoke
// a complete frame — so the breaker does not count it as a failure; the
// active probe is what parks a saturated or draining backend. A
// half-open trial that gets refused still closes the breaker: the
// process is up, just unwilling.
func (b *backend) reportRefusal(f *Fleet, cause error, trial bool) {
	b.refusals.Add(1)
	b.mu.Lock()
	b.leave()
	b.fails = 0
	b.halfOpen = false
	if b.ejected {
		b.ejected = false
		b.mu.Unlock()
		f.readmissions.Add(1)
		return
	}
	b.mu.Unlock()
}

// probeResult applies one active-probe verdict. A succeeding probe
// readmits an ejected backend directly — the ops endpoint answering
// "ok" is evidence enough that the process recovered.
func (b *backend) probeResult(f *Fleet, ok bool) {
	if !ok {
		b.probeFails.Add(1)
	}
	b.mu.Lock()
	b.probeOK = ok
	if ok && b.ejected {
		b.ejected = false
		b.halfOpen = false
		b.fails = 0
		b.mu.Unlock()
		f.readmissions.Add(1)
		return
	}
	b.mu.Unlock()
}

// addConn registers a splice's client connection, which Drain
// force-closes to end the session; removeConn unregisters it.
func (b *backend) addConn(conn net.Conn) {
	b.mu.Lock()
	if b.conns == nil {
		b.conns = make(map[net.Conn]struct{})
	}
	b.conns[conn] = struct{}{}
	b.mu.Unlock()
}

func (b *backend) removeConn(conn net.Conn) {
	b.mu.Lock()
	delete(b.conns, conn)
	b.mu.Unlock()
}

func (b *backend) snapshotConns() []net.Conn {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]net.Conn, 0, len(b.conns))
	for c := range b.conns {
		out = append(out, c)
	}
	return out
}

// routable reports whether admit would say yes right now, without
// reserving a slot.
func (b *backend) routable(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.drained || !b.probeOK {
		return false
	}
	if b.ejected {
		return !b.halfOpen && !now.Before(b.reopenAt)
	}
	return true
}

func (b *backend) stats(now time.Time) BackendStats {
	b.mu.Lock()
	bs := BackendStats{
		Addr:     b.spec.Addr,
		Draining: b.drained,
		Ejected:  b.ejected,
		ProbeOK:  b.probeOK,
		Active:   b.active,
	}
	bs.Routable = !b.drained && b.probeOK &&
		(!b.ejected || (!b.halfOpen && !now.Before(b.reopenAt)))
	b.mu.Unlock()
	bs.SessionsRouted = b.routed.Load()
	bs.Failures = b.failures.Load()
	bs.Refusals = b.refusals.Load()
	bs.ProbeFailures = b.probeFails.Load()
	return bs
}

// probeLoop polls one backend's ops endpoint until the fleet closes.
func (f *Fleet) probeLoop(b *backend) {
	defer f.probeWG.Done()
	client := &http.Client{Timeout: f.cfg.ProbeTimeout}
	ticker := time.NewTicker(f.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-f.Done():
			return
		case <-ticker.C:
		}
		b.probeResult(f, probeOnce(client, b.spec.Ops))
	}
}

// probeOnce asks one backend whether it is routable: GET /readyz, and
// when the backend predates /readyz (404), GET /healthz. Any transport
// error or non-200 status is a failing probe.
func probeOnce(client *http.Client, ops string) bool {
	code, _, err := probeGet(client, ops, "/readyz")
	if err != nil {
		return false
	}
	if code == http.StatusNotFound {
		code, _, err = probeGet(client, ops, "/healthz")
		if err != nil {
			return false
		}
	}
	return probeVerdict(code)
}

func probeGet(client *http.Client, ops, path string) (int, string, error) {
	resp, err := client.Get(fmt.Sprintf("http://%s%s", ops, path))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	return resp.StatusCode, string(body), nil
}

// probeVerdict maps a probe's HTTP status to routability. Split out of
// probeOnce so the fuzzer can drive it with arbitrary statuses.
func probeVerdict(code int) bool {
	return code == http.StatusOK
}
