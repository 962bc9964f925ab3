package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"haac/internal/faultnet"
	"haac/internal/gc"
	"haac/internal/label"
	"haac/internal/ot"
	"haac/internal/proto"
	"haac/internal/workloads"
)

// Robustness suite for the integrity wire tier: negotiation and legacy
// fallback, the framing's byte overhead, whole-stream corruption healed
// by detect->resume, resume byte accounting (verified chunks never
// re-cross the wire), panic containment, and the static/dynamic
// resource budgets.

// robustRetry is chaosRetry plus a per-attempt run deadline: whole-
// stream corruption can land in a frame-length field and leave both
// peers waiting, which only a deadline resolves. The deadline is a
// stall-breaker, not a latency bound — it must comfortably exceed the
// slowest healthy run attempt under the race detector, or clean
// attempts time out and exhaust the retry budget.
func robustRetry(seed uint64) RetryPolicy {
	p := chaosRetry(seed)
	p.RunTimeout = 2 * time.Second
	return p
}

// TestIntegrityNegotiation: the wire tier is opt-in per handshake. An
// integrity client against a willing server gets checksummed frames; a
// legacy client, or any client against a server with DisableIntegrity,
// runs the historical unframed wire byte for byte.
func TestIntegrityNegotiation(t *testing.T) {
	w := workloads.AddN(16)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	spec := CircuitSpec{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}

	cases := []struct {
		name          string
		cfg           Config
		integrity     bool
		wantIntegrity bool
	}{
		{"granted", Config{Circuits: []CircuitSpec{spec}, Seed: 7, AllowInsecureOT: true}, true, true},
		{"legacy-client", Config{Circuits: []CircuitSpec{spec}, Seed: 7, AllowInsecureOT: true}, false, false},
		{"server-declines", Config{Circuits: []CircuitSpec{spec}, Seed: 7, AllowInsecureOT: true, DisableIntegrity: true}, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startServer(t, tc.cfg)
			sess, err := Dial(addr, w.Name, c, Options{OT: ot.Insecure, Integrity: tc.integrity})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if got := sess.Integrity(); got != tc.wantIntegrity {
				t.Fatalf("Integrity() = %v, want %v", got, tc.wantIntegrity)
			}
			for run := 0; run < 3; run++ {
				_, evalBits := w.Inputs(int64(10 + run))
				want, err := c.Eval(garblerBits, evalBits)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sess.Run(evalBits)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("run %d: outputs diverge from oracle", run)
				}
			}
			// A clean transport needs no repair on either tier.
			if cs := sess.Stats(); cs.Resumes != 0 || cs.IntegrityFailures != 0 || cs.Reconnects != 0 {
				t.Fatalf("clean transport shows repair work: %+v", cs)
			}
		})
	}
}

// TestIntegrityByteOverhead: on a clean transport the checksummed frames
// cost more bytes than the legacy wire, but less than 2% more. The same
// circuit, seed and inputs run once per tier against identically
// configured servers; each server's BytesOut is read once it has
// drained.
func TestIntegrityByteOverhead(t *testing.T) {
	w := workloads.AES128()
	c := w.Build()
	garblerBits, _ := w.Inputs(3)
	bytesOut := func(integrity bool) uint64 {
		srv, addr := startServer(t, Config{
			Circuits:        []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
			Seed:            23,
			AllowInsecureOT: true,
		})
		sess, err := Dial(addr, w.Name, c, Options{OT: ot.Insecure, Integrity: integrity})
		if err != nil {
			t.Fatal(err)
		}
		if sess.Integrity() != integrity {
			t.Fatalf("Integrity() = %v, want %v", sess.Integrity(), integrity)
		}
		oracleRuns(t, sess, w, c, garblerBits, 2)
		sess.Close()
		srv.Close()
		return srv.Stats().BytesOut
	}
	legacy, framed := bytesOut(false), bytesOut(true)
	if framed <= legacy {
		t.Fatalf("integrity wire sent %d bytes, legacy %d: the frame headers are not counted", framed, legacy)
	}
	if pct := float64(framed-legacy) / float64(legacy) * 100; pct >= 2 {
		t.Fatalf("integrity wire overhead %.3f%% (%d vs %d bytes) breaches the 2%% budget", pct, framed, legacy)
	}
}

// TestIntegrityCorruptAnywhereHeals: bit corruption at arbitrary
// stream offsets — not just the validated handshake prefix the legacy
// chaos scenario is restricted to — is detected by the frame checksums
// and healed by retry/resume, with zero silent wrong outputs.
func TestIntegrityCorruptAnywhereHeals(t *testing.T) {
	w := workloads.AddN(16)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	_, addr := startServer(t, Config{
		Circuits: []CircuitSpec{{
			ID:      w.Name,
			Circuit: c,
			Inputs:  func() []bool { return garblerBits },
		}},
		Seed:            21,
		AllowInsecureOT: true,
		RunTimeout:      2 * time.Second,
	})

	dialer := &faultnet.Dialer{Plan: faultnet.Plan{Seed: 0xD1CE, CorruptRate: 0.05}}
	const sessions = 4
	const runsPerSession = 6
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	statc := make(chan ClientStats, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := Dial(addr, w.Name, c, Options{
				OT:        ot.Insecure,
				Integrity: true,
				Retry:     robustRetry(uint64(2000 + i)),
				Dialer:    dialer.Dial,
			})
			if err != nil {
				errc <- fmt.Errorf("session %d: dial: %w", i, err)
				return
			}
			defer sess.Close()
			for run := 0; run < runsPerSession; run++ {
				_, evalBits := w.Inputs(int64(i*100 + run))
				want, err := c.Eval(garblerBits, evalBits)
				if err != nil {
					errc <- err
					return
				}
				got, err := sess.Run(evalBits)
				if err != nil {
					errc <- fmt.Errorf("session %d run %d: %w", i, run, err)
					return
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					errc <- fmt.Errorf("session %d run %d: silent wrong output", i, run)
					return
				}
			}
			statc <- sess.Stats()
		}(i)
	}
	wg.Wait()
	close(errc)
	close(statc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	if dialer.Stats().Corruptions.Load() == 0 {
		t.Fatal("fault plan injected no corruption; the scenario proved nothing")
	}
	var detected uint64
	for cs := range statc {
		detected += cs.IntegrityFailures
	}
	if detected == 0 {
		t.Fatal("corruption was injected but no client detected an integrity failure")
	}
}

// TestIntegrityResumeSkipsVerifiedChunks: a corrupted bulk transfer
// resumes from the last verified chunk. The workload's table stream is
// large (AES-128, ~6400 AND gates); corruption lands near the end, so a
// full replay would nearly double the bytes received while a resume
// adds only the damaged tail. The transfer-byte counters tell the two
// apart.
func TestIntegrityResumeSkipsVerifiedChunks(t *testing.T) {
	w := workloads.AES128()
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	srv, addr := startServer(t, Config{
		Circuits: []CircuitSpec{{
			ID:      w.Name,
			Circuit: c,
			Inputs:  func() []bool { return garblerBits },
		}},
		Seed:            9,
		AllowInsecureOT: true,
		RunTimeout:      5 * time.Second,
	})

	_, evalBits := w.Inputs(2)
	want, err := c.Eval(garblerBits, evalBits)
	if err != nil {
		t.Fatal(err)
	}

	// Fault-free baseline run, measuring the inbound bytes of one clean
	// transfer.
	cleanStats := &proto.Stats{}
	clean, err := Dial(addr, w.Name, c, Options{OT: ot.Insecure, Integrity: true, Stats: cleanStats})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Run(evalBits); err != nil {
		t.Fatal(err)
	}
	clean.Close()
	baseline := cleanStats.BytesReceived.Load()
	if baseline < 100_000 {
		t.Fatalf("baseline transfer only %d bytes; workload too small to distinguish resume from replay", baseline)
	}

	// Corrupt a window near the end of the first connection's inbound
	// stream: almost every table chunk is already verified when the
	// damage lands. CorruptOnce keeps redials clean so exactly one break
	// is injected.
	dialer := &faultnet.Dialer{
		Plan: faultnet.Plan{
			Seed:         0xBEEF,
			CorruptRate:  1,
			CorruptAfter: baseline - 20_000,
			CorruptFirst: baseline - 16_000,
		},
		CorruptOnce: true,
	}
	faultyStats := &proto.Stats{}
	sess, err := Dial(addr, w.Name, c, Options{
		OT:        ot.Insecure,
		Integrity: true,
		Retry:     robustRetry(31),
		Dialer:    dialer.Dial,
		Stats:     faultyStats,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got, err := sess.Run(evalBits)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("resumed run diverged from the oracle")
	}
	if dialer.Stats().Corruptions.Load() == 0 {
		t.Fatal("no corruption was injected; the scenario proved nothing")
	}
	cs := sess.Stats()
	if cs.Resumes == 0 {
		t.Fatalf("run healed without a resume (stats %+v); expected a mid-stream continue", cs)
	}
	// The client returns as soon as it reports the result; give the
	// server a moment to ingest it and account the resumed run.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().RunsResumed == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := srv.Stats(); st.RunsResumed == 0 {
		t.Fatalf("server counted no resumed run: %+v", st)
	}
	// A full replay would re-receive ~all of the baseline on top of the
	// broken transfer (~2x total). A resume re-receives only the tail
	// past the last verified chunk.
	if faulty := faultyStats.BytesReceived.Load(); faulty >= baseline+baseline*3/4 {
		t.Fatalf("resumed transfer received %d bytes vs %d baseline; verified chunks were re-transferred", faulty, baseline)
	}
}

// TestPanicContainment: a panic inside one session's handler — here a
// poisoned garbler-input provider — is contained to that session. The
// client heals by redial, the counter trips once, and the server keeps
// accepting fresh sessions.
func TestPanicContainment(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	var calls atomic.Int32
	srv, addr := startServer(t, Config{
		Circuits: []CircuitSpec{{
			ID:      w.Name,
			Circuit: c,
			Inputs: func() []bool {
				if calls.Add(1) == 1 {
					panic("poisoned input provider")
				}
				return garblerBits
			},
		}},
		Seed:            13,
		AllowInsecureOT: true,
	})

	sess, err := Dial(addr, w.Name, c, Options{OT: ot.Insecure, Integrity: true, Retry: robustRetry(17)})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	_, evalBits := w.Inputs(3)
	want, err := c.Eval(garblerBits, evalBits)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Run(evalBits)
	if err != nil {
		t.Fatalf("run did not heal past the panicked session: %v", err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("healed run diverged from the oracle")
	}
	if st := srv.Stats(); st.SessionsPanicked != 1 {
		t.Fatalf("SessionsPanicked = %d, want 1 (stats %+v)", st.SessionsPanicked, st)
	}
	// The server is still serving: a brand-new session works.
	fresh, err := Dial(addr, w.Name, c, Options{OT: ot.Insecure})
	if err != nil {
		t.Fatalf("server stopped accepting sessions after a contained panic: %v", err)
	}
	fresh.Close()
}

// TestBudgetRefusals: the static admission budget refuses oversized
// circuits with a typed, permanent error; the dynamic per-run byte
// budget cuts off a run that outgrows its declared stream size.
func TestBudgetRefusals(t *testing.T) {
	w := workloads.AddN(16)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	spec := CircuitSpec{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}

	t.Run("static-admission", func(t *testing.T) {
		srv, addr := startServer(t, Config{
			Circuits:        []CircuitSpec{spec},
			Seed:            3,
			AllowInsecureOT: true,
			MaxCircuitBytes: 1,
		})
		var dials atomic.Int32
		counted := func(addr string) (net.Conn, error) {
			dials.Add(1)
			return net.Dial("tcp", addr)
		}
		_, err := Dial(addr, w.Name, c, Options{OT: ot.Insecure, Retry: robustRetry(5), Dialer: counted})
		if !errors.Is(err, ErrOverBudget) {
			t.Fatalf("Dial err = %v, want ErrOverBudget", err)
		}
		// A permanent refusal is not retried: one dial, one refusal.
		if n := dials.Load(); n != 1 {
			t.Fatalf("over-budget dial dialed %d times, want 1 (no retry)", n)
		}
		if st := srv.Stats(); st.SessionsOverBudget != 1 {
			t.Fatalf("SessionsOverBudget = %d, want 1 (stats %+v)", st.SessionsOverBudget, st)
		}
	})

	t.Run("dynamic-run-bytes", func(t *testing.T) {
		// Admit the session (the static estimate fits) but set the
		// ceiling so close that the real stream — OT traffic is not part
		// of the static estimate — breaches it mid-run.
		srv, err := New(Config{Circuits: []CircuitSpec{spec}, Seed: 3, AllowInsecureOT: true})
		if err != nil {
			t.Fatal(err)
		}
		limit := srv.reg[w.Name].runBytes + 8
		srv.Close()

		srv2, addr := startServer(t, Config{
			Circuits:        []CircuitSpec{spec},
			Seed:            3,
			AllowInsecureOT: true,
			MaxRunBytes:     limit,
		})
		sess, err := Dial(addr, w.Name, c, Options{OT: ot.Insecure, Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 4}})
		if err != nil {
			t.Fatalf("admission should pass at limit %d: %v", limit, err)
		}
		defer sess.Close()
		_, evalBits := w.Inputs(4)
		if _, err := sess.Run(evalBits); err == nil {
			t.Fatal("run succeeded under a budget below its real stream size")
		}
		if st := srv2.Stats(); st.RunsOverBudget == 0 {
			t.Fatalf("RunsOverBudget = 0, want >= 1 (stats %+v)", st)
		}
	})
}

// TestIntegrityResumeWithRunAhead: on the integrity tier, a run broken
// mid-stream while its runner holds the next run garbled ahead resumes
// on a fresh connection with the right outputs, and the run after it —
// the one garbled ahead — is right too. Corruption lands near the end of
// the second run's tables; the second run was itself garbled ahead, so
// the third was queued the moment the second's tables began to stream.
func TestIntegrityResumeWithRunAhead(t *testing.T) {
	w := workloads.AES128()
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	srv, addr := startServer(t, Config{
		Circuits:        []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
		Seed:            9,
		AllowInsecureOT: true,
		RunTimeout:      5 * time.Second,
	})
	run := func(sess *Session, i int) {
		t.Helper()
		_, evalBits := w.Inputs(int64(10 + i))
		want, err := c.Eval(garblerBits, evalBits)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Run(evalBits)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d diverged from the oracle", i)
		}
	}

	// The inbound bytes of a clean session by the end of its second run.
	cleanStats := &proto.Stats{}
	clean, err := Dial(addr, w.Name, c, Options{OT: ot.Insecure, Integrity: true, Stats: cleanStats})
	if err != nil {
		t.Fatal(err)
	}
	run(clean, 0)
	run(clean, 1)
	clean.Close()
	twoRuns := cleanStats.BytesReceived.Load()

	dialer := &faultnet.Dialer{
		Plan: faultnet.Plan{
			Seed:         0xA4EAD,
			CorruptRate:  1,
			CorruptAfter: twoRuns - 20_000,
			CorruptFirst: twoRuns - 16_000,
		},
		CorruptOnce: true,
	}
	sess, err := Dial(addr, w.Name, c, Options{
		OT:        ot.Insecure,
		Integrity: true,
		Retry:     robustRetry(37),
		Dialer:    dialer.Dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	run(sess, 0)
	if dialer.Stats().Corruptions.Load() != 0 {
		t.Fatal("corruption landed in the first run; the scenario needs it in the second")
	}
	run(sess, 1)
	if dialer.Stats().Corruptions.Load() == 0 {
		t.Fatal("no corruption was injected; the scenario proved nothing")
	}
	if cs := sess.Stats(); cs.Resumes == 0 {
		t.Fatalf("run healed without a resume (stats %+v)", cs)
	}
	run(sess, 2)
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().RunsResumed == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := srv.Stats(); st.RunsResumed == 0 {
		t.Fatalf("server counted no resumed run: %+v", st)
	}
}

// TestBudgetCountsBothArenas: a runner holds two table arenas — the run
// streaming and the run garbled ahead — and admission counts both. A
// MaxCircuitBytes between the one-arena and the two-arena estimate is
// refused.
func TestBudgetCountsBothArenas(t *testing.T) {
	w := workloads.AddN(16)
	c := w.Build()
	and, _, _ := c.CountOps()
	oneArena := int64(c.NumWires())*label.Size + int64(and)*gc.MaterialSize +
		int64(c.NumInputs()+len(c.Outputs))*label.Size
	srv, addr := startServer(t, Config{
		Circuits:        []CircuitSpec{{ID: w.Name, Circuit: c}},
		Seed:            3,
		AllowInsecureOT: true,
		MaxCircuitBytes: oneArena + int64(and)*gc.MaterialSize/2,
	})
	if _, err := Dial(addr, w.Name, c, Options{OT: ot.Insecure}); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("Dial under a one-and-a-half-arena budget: err = %v, want ErrOverBudget", err)
	}
	if st := srv.Stats(); st.SessionsOverBudget != 1 {
		t.Fatalf("SessionsOverBudget = %d, want 1", st.SessionsOverBudget)
	}
}
