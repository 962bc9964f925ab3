package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"haac/internal/faultnet"
	"haac/internal/label"
	"haac/internal/ot"
	"haac/internal/workloads"
)

// Chaos suite: sessions run against a live server through a seeded
// fault-injecting dialer and must still produce outputs byte-identical
// to the plaintext oracle, healed by the client's redial/re-handshake/
// replay loop. Schedules are seeded so a failure replays; assertions
// are on outcomes (every run correct, faults observed, reconnects
// counted), not on op indices, because TCP read chunking shifts the
// roll sequence between runs.

// chaosRetry is the retry policy every chaos client runs under:
// generous attempt budget, millisecond backoff to keep tests fast, and
// a handshake deadline so a corrupted handshake reply (which can leave
// the client waiting for refusal-message bytes that never come) resolves
// into a retryable timeout instead of a hang.
func chaosRetry(seed uint64) RetryPolicy {
	return RetryPolicy{
		MaxAttempts:      200,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       8 * time.Millisecond,
		HandshakeTimeout: 250 * time.Millisecond,
		Seed:             seed,
	}
}

// TestChaosRunsHealByteIdentical: N sessions x M runs under several
// fault plans — random connection drops, stalls with chunked writes,
// drops and stalls together, bit corruption aimed at the handshake and
// run-header window — all complete with outputs identical to the
// fault-free oracle. The same clients and retry policy through a
// fault-free plan are the baseline: no repair work at all.
func TestChaosRunsHealByteIdentical(t *testing.T) {
	// corruptWindow bounds corruption to the client-inbound prefix that
	// the legacy wire's parsers actually validate: handshake reply (5) +
	// run ack (1) + run header (43). On the legacy wire, payload bytes
	// past it carry no integrity check, so corrupting them would
	// silently change outputs instead of being detected and healed.
	// TestIntegrityCorruptAnywhereHeals (robust_test.go) lifts this
	// restriction on the checksummed-frame tier, corrupting the whole
	// stream.
	const corruptWindow = 5 + 1 + 43

	scenarios := []struct {
		name           string
		plan           faultnet.Plan
		wantDrops      bool
		wantStalls     bool
		wantCorruption bool
		clean          bool
	}{
		{
			name:  "clean",
			plan:  faultnet.Plan{Seed: 1},
			clean: true,
		},
		{
			name:      "drops",
			plan:      faultnet.Plan{Seed: 0xC0FFEE, DropRate: 0.05},
			wantDrops: true,
		},
		{
			name:       "stalls-chunked-writes",
			plan:       faultnet.Plan{Seed: 2, StallRate: 0.2, Stall: 100 * time.Microsecond, MaxWriteChunk: 7},
			wantStalls: true,
		},
		{
			name:      "drops-and-stalls-delayed-fin",
			plan:      faultnet.Plan{Seed: 3, DropRate: 0.04, StallRate: 0.1, Stall: 50 * time.Microsecond, FINDelay: 5 * time.Millisecond},
			wantDrops: true,
		},
		{
			name:           "corrupt-handshake-and-header",
			plan:           faultnet.Plan{Seed: 11, CorruptRate: 0.35, CorruptFirst: corruptWindow},
			wantCorruption: true,
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			w := workloads.AddN(16)
			c := w.Build()
			garblerBits, _ := w.Inputs(1)
			srv, addr := startServer(t, Config{
				Circuits: []CircuitSpec{{
					ID:      w.Name,
					Circuit: c,
					Inputs:  func() []bool { return garblerBits },
				}},
				Seed:            21,
				AllowInsecureOT: true,
			})

			dialer := &faultnet.Dialer{Plan: sc.plan}
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
						OT:     ot.Insecure,
						Retry:  chaosRetry(uint64(1000 + i)),
						Dialer: dialer.Dial,
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
						for j := range want {
							if got[j] != want[j] {
								errc <- fmt.Errorf("session %d run %d: output %d = %v, want %v", i, run, j, got[j], want[j])
								return
							}
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

			var agg ClientStats
			for st := range statc {
				if st.Runs != runsPerSession {
					t.Errorf("session completed %d runs, want %d", st.Runs, runsPerSession)
				}
				if st.RunFailures != 0 {
					t.Errorf("session surfaced %d run failures under retry", st.RunFailures)
				}
				agg.Runs += st.Runs
				agg.Retries += st.Retries
				agg.Reconnects += st.Reconnects
				agg.DialFailures += st.DialFailures
			}
			faults := dialer.Stats()
			t.Logf("chaos %s: conns=%d drops=%d stalls=%d corruptions=%d reconnects=%d retries=%d dialFailures=%d",
				sc.name, faults.Conns.Load(), faults.Drops.Load(), faults.Stalls.Load(),
				faults.Corruptions.Load(), agg.Reconnects, agg.Retries, agg.DialFailures)

			// The plan must actually have injected its faults (else the
			// scenario proved nothing), and every drop-class fault must
			// have healed through a reconnect.
			if sc.wantDrops {
				if faults.Drops.Load() == 0 {
					t.Error("no drops injected; raise DropRate or the run count")
				}
				if agg.Reconnects == 0 {
					t.Error("drops injected but no session ever reconnected")
				}
			}
			if sc.wantStalls && faults.Stalls.Load() == 0 {
				t.Error("no stalls injected")
			}
			if sc.wantCorruption && faults.Corruptions.Load() == 0 {
				t.Error("no corruption injected")
			}
			if sc.clean {
				if n := faults.Drops.Load() + faults.Stalls.Load() + faults.Corruptions.Load(); n != 0 {
					t.Errorf("fault-free plan injected %d faults", n)
				}
				if agg.Reconnects != 0 || agg.Retries != 0 || agg.DialFailures != 0 {
					t.Errorf("fault-free baseline shows repair work: reconnects=%d retries=%d dialFailures=%d",
						agg.Reconnects, agg.Retries, agg.DialFailures)
				}
				if failed := srv.Stats().RunsFailed; failed != 0 {
					t.Errorf("fault-free baseline: server counted %d failed runs", failed)
				}
			}
		})
	}
}

// TestMidOTDropFreesServerSlot: with a one-session server, a client
// whose connection is severed deterministically in the middle of the
// OT phase must be able to redial that same server — proof that the
// server tears the dead session down and releases its admission slot
// (redials that race the teardown are refused busy, which the retry
// policy absorbs).
func TestMidOTDropFreesServerSlot(t *testing.T) {
	w := workloads.AddN(16)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	srv, addr := startServer(t, Config{
		Circuits: []CircuitSpec{{
			ID:      w.Name,
			Circuit: c,
			Inputs:  func() []bool { return garblerBits },
		}},
		Seed:            5,
		MaxSessions:     1,
		AllowInsecureOT: true,
	})

	// Sever the first connection on the first I/O op after the byte
	// total crosses into the OT phase: hello + reply + run op + ack +
	// run header + the garbler's active input labels all precede it.
	nFixed := c.GarblerInputs
	if c.HasConst {
		nFixed += 2
	}
	const helloLen = helloFixedSize + 32 // + id length, added below
	const replyLen = 5
	const runHeaderLen = 43 // proto run header (see internal/proto)
	preOT := helloLen + len(w.Name) + replyLen + 1 + 1 + runHeaderLen + nFixed*label.Size
	dialer := &faultnet.Dialer{
		Plan:     faultnet.Plan{Seed: 77, DropAfterBytes: int64(preOT) + 8},
		DropOnce: true, // only the first conn drops, so the redial heals
	}

	sess, err := Dial(addr, w.Name, c, Options{
		OT:     ot.Insecure,
		Retry:  chaosRetry(7),
		Dialer: dialer.Dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

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
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("run %d: output %d = %v, want %v", run, j, got[j], want[j])
			}
		}
	}

	st := sess.Stats()
	if dialer.Stats().Drops.Load() == 0 {
		t.Fatal("the mid-OT drop never fired; DropAfterBytes is past the session's traffic")
	}
	if st.Reconnects == 0 {
		t.Errorf("stats = %+v, want at least one reconnect", st)
	}
	if st.Runs != 3 {
		t.Errorf("runs completed = %d, want 3", st.Runs)
	}
	if got := srv.Stats().RunsFailed; got == 0 {
		t.Error("server counted no failed runs for the severed attempt")
	}

	// The healed session is the only admitted one; closing it drains the
	// server's active gauge to zero.
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ActiveSessions != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Stats().ActiveSessions; got != 0 {
		t.Fatalf("active sessions = %d after close, want 0", got)
	}
}
