package server

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"haac/internal/builder"
	"haac/internal/circuit"
	"haac/internal/faultnet"
	"haac/internal/ot"
	"haac/internal/proto"
	"haac/internal/workloads"
)

// oracleRuns drives runs through sess and fails on any divergence from
// the plaintext oracle.
func oracleRuns(t *testing.T, sess *Session, w workloads.Workload, c *circuit.Circuit, garblerBits []bool, runs int) {
	t.Helper()
	for run := 0; run < runs; run++ {
		_, evalBits := w.Inputs(int64(run))
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
}

// TestPooledSessionServesFromPool is the tentpole's steady-state
// acceptance check at the serving layer: a session dialed with PoolSize
// pays its base OTs once at dial time, then every Run draws evaluator
// labels from the pool — zero base-OT rounds across the whole run
// window, in-run fill included, every run a pool hit, outputs
// identical to the oracle.
func TestPooledSessionServesFromPool(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	srv, addr := startServer(t, Config{
		Circuits: []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
		Seed:     7,
	})

	m := c.EvaluatorInputs
	const runs = 6
	// 2*runs*m: the last run is the first to leave the pool half its
	// target short, so it alone carries an in-run fill (of runs*m), and
	// the counters below are deterministic.
	sess, err := Dial(addr, w.Name, c, Options{PoolSize: 2 * runs * m})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if !sess.Pooled() {
		t.Fatal("server did not grant the pooled tier")
	}
	if lvl := sess.PoolLevel(); lvl != 2*runs*m {
		t.Fatalf("pool level after dial = %d, want %d", lvl, 2*runs*m)
	}

	rounds := ot.BaseOTRounds()
	oracleRuns(t, sess, w, c, garblerBits, runs)
	if got := ot.BaseOTRounds() - rounds; got != 0 {
		t.Errorf("base-OT rounds during steady-state runs = %d, want 0", got)
	}
	cs := sess.Stats()
	if cs.PoolHits != runs || cs.PoolMisses != 0 || cs.PoolRefills != 2 {
		t.Errorf("client pool stats hits=%d misses=%d refills=%d, want %d/0/2",
			cs.PoolHits, cs.PoolMisses, cs.PoolRefills, runs)
	}
	if lvl := sess.PoolLevel(); lvl != 2*runs*m {
		t.Errorf("pool level after %d runs = %d, want the target %d", runs, lvl, 2*runs*m)
	}

	sess.Close()
	srv.Close()
	st := srv.Stats()
	if st.PoolHits != runs || st.PoolMisses != 0 || st.PoolRefills != 2 {
		t.Errorf("server pool stats hits=%d misses=%d refills=%d, want %d/0/2",
			st.PoolHits, st.PoolMisses, st.PoolRefills, runs)
	}
	metrics := srv.metricsText()
	for _, want := range []string{
		fmt.Sprintf("haac_pool_hits_total %d", runs),
		"haac_pool_misses_total 0",
		"haac_pool_refills_total 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestPooledSessionClampAndFallback: a server cap below one run's
// demand clamps the handshake's grant and so the connect-time fill, and
// every run falls back to on-demand OT as a miss — correct outputs, no
// deadlock, the short pool never consumed.
func TestPooledSessionClampAndFallback(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	m := c.EvaluatorInputs
	srv, addr := startServer(t, Config{
		Circuits:    []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
		Seed:        9,
		MaxPoolSize: m - 1, // one correlation short of a single run
	})

	const runs = 3
	sess, err := Dial(addr, w.Name, c, Options{PoolSize: 4 * m})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if !sess.Pooled() {
		t.Fatal("server did not grant the pooled tier")
	}
	if lvl := sess.PoolLevel(); lvl != m-1 {
		t.Fatalf("clamped pool level = %d, want %d", lvl, m-1)
	}
	oracleRuns(t, sess, w, c, garblerBits, runs)
	cs := sess.Stats()
	if cs.PoolHits != 0 || cs.PoolMisses != runs || cs.PoolRefills != 1 {
		t.Errorf("client pool stats hits=%d misses=%d refills=%d, want 0/%d/1",
			cs.PoolHits, cs.PoolMisses, cs.PoolRefills, runs)
	}
	if lvl := sess.PoolLevel(); lvl != m-1 {
		t.Errorf("short pool was consumed: level %d, want %d", lvl, m-1)
	}

	sess.Close()
	srv.Close()
	st := srv.Stats()
	if st.PoolHits != 0 || st.PoolMisses != runs {
		t.Errorf("server pool stats hits=%d misses=%d, want 0/%d", st.PoolHits, st.PoolMisses, runs)
	}
}

// TestPooledRefillRace drains a pool that holds two runs' worth, so
// every run leaves it half short and tops it back up with an in-run
// fill whose columns race the run's own table stream on the session
// wire. Every run must complete byte-identical and be a hit (never a
// deadlock, a miss or a duplicated correlation), each fill counts as a
// refill, and both sides must agree on every count.
func TestPooledRefillRace(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	m := c.EvaluatorInputs
	srv, addr := startServer(t, Config{
		Circuits: []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
		Seed:     13,
	})

	const runs = 20
	sess, err := Dial(addr, w.Name, c, Options{PoolSize: 2 * m})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	oracleRuns(t, sess, w, c, garblerBits, runs)
	cs := sess.Stats()
	if cs.PoolHits != runs || cs.PoolMisses != 0 {
		t.Errorf("hits/misses = %d/%d, want %d/0", cs.PoolHits, cs.PoolMisses, runs)
	}
	if cs.PoolRefills != 1+runs {
		t.Errorf("refills = %d, want the connect-time fill and one in-run fill per run (%d)", cs.PoolRefills, 1+runs)
	}
	if lvl := sess.PoolLevel(); lvl != 2*m {
		t.Errorf("pool level after the runs = %d, want the target %d", lvl, 2*m)
	}

	sess.Close()
	srv.Close()
	st := srv.Stats()
	if st.PoolHits != cs.PoolHits || st.PoolMisses != cs.PoolMisses || st.PoolRefills != cs.PoolRefills {
		t.Errorf("server saw hits=%d misses=%d refills=%d, client saw %d/%d/%d — sides disagree",
			st.PoolHits, st.PoolMisses, st.PoolRefills, cs.PoolHits, cs.PoolMisses, cs.PoolRefills)
	}
}

// TestPooledDeclinedFallsBack: a server running with DisablePooledOT
// accepts a pooled-requesting client unpooled; runs work on demand and
// no fill ever happens.
func TestPooledDeclinedFallsBack(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	srv, addr := startServer(t, Config{
		Circuits:        []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
		Seed:            15,
		DisablePooledOT: true,
	})

	sess, err := Dial(addr, w.Name, c, Options{PoolSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Pooled() {
		t.Fatal("session reports pooled against a DisablePooledOT server")
	}
	if lvl := sess.PoolLevel(); lvl != 0 {
		t.Fatalf("unpooled session holds a pool of %d", lvl)
	}
	oracleRuns(t, sess, w, c, garblerBits, 3)
	cs := sess.Stats()
	if cs.PoolHits != 0 || cs.PoolMisses != 0 || cs.PoolRefills != 0 {
		t.Errorf("unpooled session counted pool activity: %+v", cs)
	}

	sess.Close()
	srv.Close()
	st := srv.Stats()
	if st.PoolHits != 0 || st.PoolMisses != 0 || st.PoolRefills != 0 {
		t.Errorf("server counted pool activity on a declined tier: hits=%d misses=%d refills=%d",
			st.PoolHits, st.PoolMisses, st.PoolRefills)
	}
}

// TestPooledHandshake covers the pool's negotiation in the handshake.
// A pooled hello asking for no pool is refused ErrBadRequest. A request
// past MaxPoolSize is granted exactly MaxPoolSize: the client's level
// after the connect-time fill is the grant, and runs whose in-run fills
// both ends derive from their own levels and targets stay in lockstep,
// which they could not if the server held any other level. A draining
// server refuses ErrDraining. A server that grants 0, or more than was
// asked, fails the dial as a malformed frame on a closed session.
func TestPooledHandshake(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	m := c.EvaluatorInputs
	cfg := Config{
		Circuits:    []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
		Seed:        61,
		MaxPoolSize: 2 * m,
	}
	// A dial over a net.Pipe whose far end the test plays: the
	// handshake deadline turns a client that waits on bytes the far end
	// never sends into a failure instead of a hang.
	pipeOptions := func(conn net.Conn, pool int) Options {
		return Options{
			PoolSize: pool,
			Dialer:   func(string) (net.Conn, error) { return conn, nil },
			Retry:    RetryPolicy{HandshakeTimeout: 5 * time.Second},
		}
	}

	t.Run("pool-zero", func(t *testing.T) {
		_, addr := startServer(t, cfg)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeHello(conn, hello{ot: ot.Pooled, id: w.Name, digest: circuit.Digest(c)}); err != nil {
			t.Fatal(err)
		}
		if _, err := readReply(conn); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("pooled hello with pool 0: got %v, want ErrBadRequest", err)
		}
	})

	t.Run("past-max-pool-size", func(t *testing.T) {
		srv, addr := startServer(t, cfg)
		sess, err := Dial(addr, w.Name, c, Options{PoolSize: 5 * m})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if lvl := sess.PoolLevel(); !sess.Pooled() || lvl != 2*m {
			t.Fatalf("pooled=%v level=%d, want the grant MaxPoolSize = %d", sess.Pooled(), lvl, 2*m)
		}
		// Target 2m: every run leaves the pool m short and tops it up.
		const runs = 4
		oracleRuns(t, sess, w, c, garblerBits, runs)
		cs := sess.Stats()
		sess.Close()
		srv.Close()
		st := srv.Stats()
		if cs.PoolHits != runs || cs.PoolRefills != 1+runs || st.PoolHits != runs || st.PoolRefills != 1+runs {
			t.Errorf("client hits/refills %d/%d, server %d/%d, want %d/%d on both ends",
				cs.PoolHits, cs.PoolRefills, st.PoolHits, st.PoolRefills, runs, 1+runs)
		}
	})

	t.Run("draining", func(t *testing.T) {
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.mu.Lock()
		srv.draining = true
		srv.mu.Unlock()
		client, server := net.Pipe()
		admitted := make(chan bool, 1)
		go func() {
			st := &session{conn: server}
			ok := srv.handshake(st)
			server.Close()
			admitted <- ok
		}()
		if _, err := Dial("pipe", w.Name, c, pipeOptions(client, m)); !errors.Is(err, ErrDraining) {
			t.Fatalf("pooled dial of a draining server: got %v, want ErrDraining", err)
		}
		if <-admitted {
			t.Fatal("a draining server admitted the session")
		}
	})

	for _, grant := range []uint32{0, 2*uint32(m) + 1} {
		t.Run(fmt.Sprintf("scripted-grant-%d", grant), func(t *testing.T) {
			client, peer := net.Pipe()
			defer peer.Close()
			done := make(chan error, 1)
			go func() {
				h, _, err := readHello(peer)
				if err == nil && h.pool != uint32(2*m) {
					err = fmt.Errorf("hello asked for %d, want %d", h.pool, 2*m)
				}
				if err == nil {
					err = writeReply(peer, statusOKPooled, 8, grant, "")
				}
				done <- err
			}()
			_, err := Dial("pipe", w.Name, c, pipeOptions(client, 2*m))
			if perr := <-done; perr != nil {
				t.Fatalf("scripted server: %v", perr)
			}
			if !errors.Is(err, ErrMalformedFrame) || !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("grant %d of %d: got %v, want ErrMalformedFrame inside ErrSessionClosed", grant, 2*m, err)
			}
		})
	}
}

// TestChaosPooledDropMidRefill aims a deterministic connection drop at
// the pool-fill byte window of the connect-time fill inside the
// handshake (base OTs + fill stream) and another at an in-run fill's
// columns, then lets random
// drops loose on a pooled session whose runs carry in-run fills. All
// must heal through redial + re-handshake + fresh pool, with every
// run's output identical to the oracle.
func TestChaosPooledDropMidRefill(t *testing.T) {
	w := workloads.AddN(16)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)

	t.Run("deterministic-mid-fill", func(t *testing.T) {
		_, addr := startServer(t, Config{
			Circuits: []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
			Seed:     23,
		})
		// The drop lands well past the ~60 bytes of hello and reply but
		// inside the handshake fill's base-OT + masked-column stream; DropOnce lets the
		// redial heal instead of tripping the same offset forever.
		dialer := &faultnet.Dialer{
			Plan:     faultnet.Plan{Seed: 31, DropAfterBytes: 2048},
			DropOnce: true,
		}
		sess, err := Dial(addr, w.Name, c, Options{
			PoolSize: 64,
			Retry:    chaosRetry(41),
			Dialer:   dialer.Dial,
		})
		if err != nil {
			t.Fatalf("dial never healed the mid-fill drop: %v", err)
		}
		defer sess.Close()
		if drops := dialer.Stats().Drops.Load(); drops == 0 {
			t.Fatal("no drop injected; the scenario proved nothing")
		}
		if !sess.Pooled() || sess.PoolLevel() != 64 {
			t.Fatalf("healed session: pooled=%v level=%d, want a full pool of 64", sess.Pooled(), sess.PoolLevel())
		}
		oracleRuns(t, sess, w, c, garblerBits, 3)
		if cs := sess.Stats(); cs.PoolHits != 3 {
			t.Errorf("healed pool hits = %d, want 3", cs.PoolHits)
		}
	})

	t.Run("deterministic-mid-in-run-fill", func(t *testing.T) {
		// A wide XOR with no tables: the fill's columns (16 bytes per
		// OT) are most of a run's evaluator→garbler bytes. PoolSize 2m
		// makes every run carry a fill of m.
		const width = 256
		b := builder.New()
		x, y := b.GarblerInputs(width), b.EvaluatorInputs(width)
		b.Output(b.XorTree(b.XORWords(x, y)))
		wc := b.MustBuild()
		m := wc.EvaluatorInputs
		g := make([]bool, wc.GarblerInputs)
		for i := range g {
			g[i] = i%3 == 0
		}
		_, addr := startServer(t, Config{
			Circuits: []CircuitSpec{{ID: "xor", Circuit: wc, Inputs: func() []bool { return g }}},
			Seed:     37,
		})
		evalBits := func(run int) []bool {
			e := make([]bool, m)
			for i := range e {
				e[i] = (i+run)%5 == 1
			}
			return e
		}

		// A probe session measures the dial's bytes and checks that a run
		// carries a fill. A run's fill starts once its op frame and the
		// server's first flush (ack, header, garbler labels, masked
		// pairs) have crossed, and it is still writing until all its
		// columns have: a drop aimed at half of them past that point
		// lands inside it.
		st := &proto.Stats{}
		probe, err := Dial(addr, "xor", wc, Options{PoolSize: 2 * m, Stats: st})
		if err != nil {
			t.Fatal(err)
		}
		dialBytes := st.BytesSent.Load() + st.BytesReceived.Load()
		if _, err := probe.Run(evalBits(0)); err != nil {
			t.Fatal(err)
		}
		if cs := probe.Stats(); cs.PoolRefills != 2 {
			t.Fatalf("the probe's run carried no fill (refills %d)", cs.PoolRefills)
		}
		probe.Close()
		nFixed := wc.GarblerInputs
		if wc.HasConst {
			nFixed += 2
		}
		fill := ot.FillBytes(m)
		firstFlush := dialBytes + int64(1+5+(m+7)/8) + 1 + protoRunHeaderLen + int64(16*nFixed+32*m)

		dialer := &faultnet.Dialer{
			// 64-byte write chunks split the fill's column write, so the
			// drop lands inside it rather than after it.
			Plan:     faultnet.Plan{Seed: 43, DropAfterBytes: firstFlush + fill/2, MaxWriteChunk: 64},
			DropOnce: true,
		}
		sess, err := Dial(addr, "xor", wc, Options{PoolSize: 2 * m, Retry: chaosRetry(47), Dialer: dialer.Dial})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		for run := 0; run < 3; run++ {
			e := evalBits(run)
			want, err := wc.Eval(g, e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sess.Run(e)
			if err != nil {
				t.Fatalf("run %d never healed the mid-fill drop: %v", run, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("run %d diverged from the oracle", run)
			}
		}
		if drops := dialer.Stats().Drops.Load(); drops != 1 {
			t.Fatalf("%d drops injected, want exactly the one mid-fill", drops)
		}
		cs := sess.Stats()
		if cs.Reconnects != 1 || cs.PoolHits != 3 {
			t.Errorf("healed session: reconnects=%d hits=%d, want 1/3", cs.Reconnects, cs.PoolHits)
		}
		if lvl := sess.PoolLevel(); lvl != 2*m {
			t.Errorf("healed pool level = %d, want the target %d", lvl, 2*m)
		}
	})

	t.Run("random-drops", func(t *testing.T) {
		_, addr := startServer(t, Config{
			Circuits: []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
			Seed:     29,
		})
		dialer := &faultnet.Dialer{Plan: faultnet.Plan{Seed: 0xBEEF, DropRate: 0.02}}
		// Three runs' worth: every second run carries an in-run fill.
		sess, err := Dial(addr, w.Name, c, Options{
			PoolSize: 48,
			Retry:    chaosRetry(43),
			Dialer:   dialer.Dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		oracleRuns(t, sess, w, c, garblerBits, 12)
		cs := sess.Stats()
		if cs.PoolHits+cs.PoolMisses != 12 {
			t.Errorf("hits+misses = %d+%d, want 12", cs.PoolHits, cs.PoolMisses)
		}
		t.Logf("random drops: injected=%d reconnects=%d hits=%d misses=%d refills=%d",
			dialer.Stats().Drops.Load(), cs.Reconnects, cs.PoolHits, cs.PoolMisses, cs.PoolRefills)
	})
}
