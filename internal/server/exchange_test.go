package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"haac/internal/circuit"
	"haac/internal/faultnet"
	"haac/internal/ot"
	"haac/internal/proto"
	"haac/internal/workloads"
)

// TestClientOpRefusals: a scripted peer over net.Pipe reads each op
// frame and answers it with ackDraining, then with bytes no op expects:
// 4, the retired refill op's refusal, and 0x7f. Run, pooled run and
// resume share one refusal rule: a typed error (ErrDraining, or
// ErrMalformedFrame wrapped in ErrSessionClosed) and a broken session. A pool hit's frame carries the
// choice correction after the op byte, 1 + 5 + ceil(m/8) bytes in all;
// net.Pipe's writes block until read, so a frame of any other length
// hangs the exchange.
func TestClientOpRefusals(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	m := c.EvaluatorInputs
	_, evalBits := w.Inputs(1)
	run := func(s *Session) error { _, err := s.runOnce(evalBits); return err }
	ops := []struct {
		name   string
		pooled bool
		frame  int // request bytes the op writes, op byte included
		call   func(s *Session) error
	}{
		{"run", false, 1, run},
		{"pooled-run", true, 1 + 5 + (m+7)/8, run},
		{"resume", false, 17, func(s *Session) error { _, err := s.resumeOnce(0); return err }},
	}
	answers := []struct {
		name string
		ack  byte
		want []error
	}{
		{"draining", ackDraining, []error{ErrDraining}},
		{"retired-refuse", 4, []error{ErrMalformedFrame, ErrSessionClosed}},
		{"unknown", 0x7f, []error{ErrMalformedFrame, ErrSessionClosed}},
	}
	for _, op := range ops {
		for _, a := range answers {
			t.Run(op.name+"/"+a.name, func(t *testing.T) {
				client, peer := net.Pipe()
				defer peer.Close()
				s := scriptedSession(t, client, c, op.pooled)
				done := make(chan error, 1)
				go func() {
					req := make([]byte, op.frame)
					if _, err := io.ReadFull(peer, req); err != nil {
						done <- err
						return
					}
					if op.pooled && (req[0] != opRun || req[1] != 0xD5 || binary.LittleEndian.Uint32(req[2:]) != uint32(m)) {
						done <- fmt.Errorf("pooled run frame %x: want op %d, then 0xD5 and count %d", req, opRun, m)
						return
					}
					_, err := peer.Write([]byte{a.ack})
					done <- err
				}()
				err := op.call(s)
				if perr := <-done; perr != nil {
					t.Fatalf("scripted peer: %v", perr)
				}
				for _, want := range a.want {
					if !errors.Is(err, want) {
						t.Errorf("err = %v, want %v", err, want)
					}
				}
				if !s.broken {
					t.Error("session not broken after the refusal")
				}
			})
		}
	}
}

// scriptedSession builds a client Session over conn, whose far end a
// test scripts by hand. pooled gives it the pooled tier and a receiver
// pool holding four runs' worth of correlations, filled against a
// sender pool over a pipe of its own.
func scriptedSession(t *testing.T, conn net.Conn, c *circuit.Circuit, pooled bool) *Session {
	t.Helper()
	es, err := proto.NewEvaluatorSession(conn, c, proto.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(es.Close)
	s := &Session{conn: conn, rw: es.Conn(), es: es, pooled: pooled}
	if pooled {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		n := 4 * c.EvaluatorInputs
		errc := make(chan error, 1)
		go func() {
			sp, err := ot.NewSenderPool(a, ot.Insecure)
			if err == nil {
				err = sp.Fill(a, n)
			}
			errc <- err
		}()
		rp, err := ot.NewReceiverPool(b, ot.Insecure)
		if err == nil {
			err = rp.Fill(b, n)
		}
		if serr := <-errc; err == nil {
			err = serr
		}
		if err != nil {
			t.Fatalf("filling the scripted session's pool: %v", err)
		}
		s.pool = rp
		es.SetPool(rp)
	}
	return s
}

// TestOpsOutsideTier speaks raw op frames through a real session's own
// transport stack. An op the session's tier does not have, or an unknown
// op byte, ends the session without a panic — op byte 4, the retired
// refill op's, on every tier, the pooled one included; a resume the
// server declines is answered and leaves the session usable for the
// next run.
func TestOpsOutsideTier(t *testing.T) {
	w := workloads.AddN(8)
	c := w.Build()
	garblerBits, evalBits := w.Inputs(1)
	want, err := c.Eval(garblerBits, evalBits)
	if err != nil {
		t.Fatal(err)
	}
	and, _, _ := c.CountOps()
	srv, addr := startServer(t, Config{
		Circuits:        []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
		Seed:            5,
		AllowInsecureOT: true,
	})
	// A live checkpoint of another circuit, and one of this circuit whose
	// run has and tables.
	const otherTok, liveTok = 0xA1, 0xB2
	srv.resume.put(otherTok, resumeEntry{id: "other", seed: 1, and: and})
	srv.resume.put(liveTok, resumeEntry{id: w.Name, seed: 1, and: and})

	frame := func(op byte, body ...uint64) []byte {
		b := []byte{op}
		for _, v := range body {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	// The frame the retired refill op had: op 4 | base u8 | n u32.
	refill := func(base ot.Protocol, n uint32) []byte {
		return binary.LittleEndian.AppendUint32([]byte{4, byte(base)}, n)
	}
	plain := Options{OT: ot.Insecure}
	integrity := Options{OT: ot.Insecure, Integrity: true}
	pooled := Options{PoolSize: 64 * c.EvaluatorInputs}
	for _, tc := range []struct {
		name  string
		opts  Options
		frame []byte
		ack   int // the expected answer; -1: the session ends
	}{
		{"resume-on-plain", plain, frame(opResume, liveTok, 0), -1},
		{"refill-unpooled", integrity, refill(ot.DH, 16), -1},
		{"unknown-op", plain, []byte{0x7f}, -1},
		{"foreign-token", integrity, frame(opResume, 0xC3, 0), ackNoResume},
		{"other-circuit-token", integrity, frame(opResume, otherTok, 0), ackNoResume},
		{"got-past-and-count", integrity, frame(opResume, liveTok, uint64(and)+1), ackNoResume},
		{"refill-zero", pooled, refill(ot.DH, 0), -1},
		{"refill-bad-base", pooled, refill(ot.IKNP, 16), -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := Dial(addr, w.Name, c, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if _, err := sess.rw.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			var ack [1]byte
			sess.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, err = io.ReadFull(sess.rw, ack[:])
			sess.conn.SetReadDeadline(time.Time{})
			if tc.ack < 0 {
				var ne net.Error
				if err == nil || errors.As(err, &ne) && ne.Timeout() {
					t.Fatalf("session answered %d (%v) instead of ending", ack[0], err)
				}
				deadline := time.Now().Add(5 * time.Second)
				for srv.Stats().ActiveSessions != 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if n := srv.Stats().ActiveSessions; n != 0 {
					t.Fatalf("ActiveSessions = %d after the session ended, want 0", n)
				}
			} else {
				if err != nil || ack[0] != byte(tc.ack) {
					t.Fatalf("answer = %d, %v; want %d", ack[0], err, tc.ack)
				}
				got, err := sess.Run(evalBits)
				if err != nil {
					t.Fatalf("run after the declined op: %v", err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatal("run after the declined op diverged from the oracle")
				}
			}
			if n := srv.Stats().SessionsPanicked; n != 0 {
				t.Fatalf("SessionsPanicked = %d, want 0", n)
			}
		})
	}
}

// TestResumeStoreStaysBounded: every completed integrity-tier run puts
// and drops one checkpoint, and the store keeps nothing of them — not
// even the eviction queue's entry. A run broken mid-stream still resumes
// from the churned store.
func TestResumeStoreStaysBounded(t *testing.T) {
	c := garblerOnlyMul(16)
	g := make([]bool, c.GarblerInputs)
	for i := range g {
		g[i] = i%3 == 0
	}
	want, err := c.Eval(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{
		Circuits:   []CircuitSpec{{ID: "mul", Circuit: c, Inputs: func() []bool { return g }}},
		Seed:       17,
		RunTimeout: 5 * time.Second,
	})
	rs := &srv.resume
	for tok := uint64(1); tok <= 100_000; tok++ {
		rs.put(tok, resumeEntry{id: "mul", seed: tok, and: 1})
		rs.drop(tok)
	}
	if len(rs.entries) != 0 || len(rs.order) > maxResumeEntries {
		t.Fatalf("after 100000 put+drop cycles: %d entries, len(order) = %d (bound %d)", len(rs.entries), len(rs.order), maxResumeEntries)
	}
	// Live checkpoints past the bound evict the oldest.
	for tok := uint64(1); tok <= 2*maxResumeEntries; tok++ {
		rs.put(tok, resumeEntry{id: "mul", seed: tok, and: 1})
	}
	if len(rs.entries) != maxResumeEntries || len(rs.order) != maxResumeEntries {
		t.Fatalf("over the bound: %d entries, len(order) = %d, want %d each", len(rs.entries), len(rs.order), maxResumeEntries)
	}
	if _, ok := rs.get(1); ok {
		t.Fatal("the oldest checkpoint survived eviction")
	}
	if _, ok := rs.get(2 * maxResumeEntries); !ok {
		t.Fatal("the newest checkpoint was evicted")
	}

	// One clean run sizes the stream; the faulty session's first
	// connection then drops three quarters of the way through it, inside
	// the table stream.
	st := &proto.Stats{}
	clean, err := Dial(addr, "mul", c, Options{Integrity: true, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Run(nil); err != nil {
		t.Fatal(err)
	}
	clean.Close()
	total := st.BytesSent.Load() + st.BytesReceived.Load()
	dialer := &faultnet.Dialer{Plan: faultnet.Plan{Seed: 3, DropAfterBytes: total * 3 / 4}, DropOnce: true}
	sess, err := Dial(addr, "mul", c, Options{Integrity: true, Retry: robustRetry(41), Dialer: dialer.Dial})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got, err := sess.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("resumed run diverged from the oracle")
	}
	if dialer.Stats().Drops.Load() == 0 {
		t.Fatal("no drop was injected; the scenario proved nothing")
	}
	if cs := sess.Stats(); cs.Resumes == 0 {
		t.Fatalf("the broken run healed without a resume: %+v", cs)
	}
}

// TestClientRunBudget covers Options.MaxRunBytes, the client's half of
// the per-run byte budget. A budget below one run's bytes fails the run
// with a permanent ErrOverBudget that is not retried; a budget of
// exactly one run's bytes — op and ack included — holds run after run,
// because every op starts its budget afresh.
func TestClientRunBudget(t *testing.T) {
	w := workloads.AddN(16)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	_, addr := startServer(t, Config{
		Circuits:        []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
		Seed:            29,
		AllowInsecureOT: true,
	})
	_, evalBits := w.Inputs(2)

	// One run's bytes, both directions, measured on an unbudgeted session.
	st := &proto.Stats{}
	probe, err := Dial(addr, w.Name, c, Options{OT: ot.Insecure, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	before := st.BytesSent.Load() + st.BytesReceived.Load()
	if _, err := probe.Run(evalBits); err != nil {
		t.Fatal(err)
	}
	perRun := st.BytesSent.Load() + st.BytesReceived.Load() - before
	probe.Close()

	dial := func(budget int64) *Session {
		t.Helper()
		sess, err := Dial(addr, w.Name, c, Options{OT: ot.Insecure, MaxRunBytes: budget, Retry: robustRetry(43)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		return sess
	}

	t.Run("below-one-run", func(t *testing.T) {
		sess := dial(perRun - 1)
		_, err := sess.Run(evalBits)
		if !errors.Is(err, ErrOverBudget) {
			t.Fatalf("Run err = %v, want ErrOverBudget", err)
		}
		if cs := sess.Stats(); cs.Retries != 0 || cs.Reconnects != 0 {
			t.Fatalf("an over-budget run was retried: %+v", cs)
		}
	})

	t.Run("one-run-each", func(t *testing.T) {
		sess := dial(perRun)
		for run := 0; run < 20; run++ {
			if _, err := sess.Run(evalBits); err != nil {
				t.Fatalf("run %d under a budget of one run's %d bytes: %v", run, perRun, err)
			}
		}
		if cs := sess.Stats(); cs.Retries != 0 {
			t.Fatalf("budgeted runs needed retries: %+v", cs)
		}
	})
}

// TestRunBudgetMakesRoomForFill: a pooled run that carries an in-run
// fill is charged the fill's bytes on top of its own, and both ends
// raise that run's MaxRunBytes by exactly the fill's ot.FillBytes. A
// budget of exactly the run's own bytes — the charge is then exactly
// run + fill, at the raised limit — holds run after run on both ends at
// once; one byte less fails the first run with ErrOverBudget on
// whichever end carries the short budget. (The server's last charge is
// the result's last byte, which the client has already sent, so there
// the failure shows in the server's counters.) The pieced rows run a
// batch of three ot.DerandPiece pieces, whose correction and masked
// pairs cross in pieces and count the same. The integrity rows hold the
// checksummed-frame tier to the same promise, with the fill's frame
// headers counted (proto.FillWireBytes).
func TestRunBudgetMakesRoomForFill(t *testing.T) {
	// Their run bytes exceed the connect-time fill's (base OTs + the
	// first fill, inside the handshake), which the budget also bounds.
	runBudgetRows(t, workloads.DotProduct(4, 16), "")
	runBudgetRows(t, workloads.AddN(2*ot.DerandPiece+5), "pieced-")
	integrityBudgetRows(t)
}

// integrityBudgetRows run on the checksummed-frame tier, where the
// budget sits under the frame codec and so also counts the frame
// headers of the fill's writes. With a pool of 4m the first run leaves
// it above half its target and carries no fill; the second carries a
// fill of 2m (ot.Pool.Decide). A budget of the fill-free first run's
// bytes holds both runs on whichever end carries it.
func integrityBudgetRows(t *testing.T) {
	w := workloads.DotProduct(4, 16)
	c := w.Build()
	pool := 4 * c.EvaluatorInputs
	garblerBits, evalBits := w.Inputs(1)
	spec := []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}}

	_, addr := startServer(t, Config{Circuits: spec, Seed: 61, MaxPoolSize: pool})
	st := &proto.Stats{}
	probe, err := Dial(addr, w.Name, c, Options{Integrity: true, PoolSize: pool, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if !probe.Integrity() {
		t.Fatal("probe session did not negotiate the integrity tier")
	}
	before := st.BytesSent.Load() + st.BytesReceived.Load()
	if _, err := probe.Run(evalBits); err != nil {
		t.Fatal(err)
	}
	twin := st.BytesSent.Load() + st.BytesReceived.Load() - before
	if cs := probe.Stats(); cs.PoolRefills != 1 {
		t.Fatalf("the first run carried a fill (refills %d)", cs.PoolRefills)
	}
	if _, err := probe.Run(evalBits); err != nil {
		t.Fatal(err)
	}
	if cs := probe.Stats(); cs.PoolRefills != 2 {
		t.Fatalf("the second run carried no fill (refills %d)", cs.PoolRefills)
	}
	probe.Close()

	for _, tc := range []struct {
		name           string
		server, client int64 // MaxRunBytes on each end
	}{
		{"integrity-client-only", 0, twin},
		{"integrity-server-only", twin, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, Config{Circuits: spec, Seed: 67, MaxRunBytes: tc.server, MaxPoolSize: pool})
			sess, err := Dial(addr, w.Name, c, Options{Integrity: true, PoolSize: pool, MaxRunBytes: tc.client})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			for run := 0; run < 2; run++ {
				if _, err := sess.Run(evalBits); err != nil {
					t.Fatalf("run %d under a budget of the fill-free run's %d bytes: %v", run, twin, err)
				}
			}
			if cs := sess.Stats(); cs.PoolRefills != 2 {
				t.Fatalf("pool refills %d, want 2: the second run carries the fill", cs.PoolRefills)
			}
			sess.Close()
			srv.Close()
			if st := srv.Stats(); st.RunsOverBudget != 0 || st.RunsServed != 2 {
				t.Fatalf("server runs over budget/served = %d/%d, want 0/2", st.RunsOverBudget, st.RunsServed)
			}
		})
	}
}

func runBudgetRows(t *testing.T, w workloads.Workload, prefix string) {
	c := w.Build()
	m := c.EvaluatorInputs
	garblerBits, evalBits := w.Inputs(1)
	spec := []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}}
	// PoolSize 2m: every run leaves the pool m short and tops it up.
	fill := ot.FillBytes(m)

	_, addr := startServer(t, Config{Circuits: spec, Seed: 53, MaxPoolSize: 2 * m})
	st := &proto.Stats{}
	probe, err := Dial(addr, w.Name, c, Options{PoolSize: 2 * m, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	before := st.BytesSent.Load() + st.BytesReceived.Load()
	if _, err := probe.Run(evalBits); err != nil {
		t.Fatal(err)
	}
	perRun := st.BytesSent.Load() + st.BytesReceived.Load() - before
	if cs := probe.Stats(); cs.PoolRefills != 2 {
		t.Fatalf("probe run carried no fill (refills %d)", cs.PoolRefills)
	}
	probe.Close()
	own := perRun - fill

	for _, tc := range []struct {
		name           string
		server, client int64 // MaxRunBytes on each end
		ok             bool
	}{
		{"exact-both-ends", own, own, true},
		{"client-one-byte-short", 0, own - 1, false},
		{"server-one-byte-short", own - 1, 0, false},
	} {
		t.Run(prefix+tc.name, func(t *testing.T) {
			srv, addr := startServer(t, Config{Circuits: spec, Seed: 59, MaxRunBytes: tc.server, MaxPoolSize: 2 * m})
			sess, err := Dial(addr, w.Name, c, Options{PoolSize: 2 * m, MaxRunBytes: tc.client})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if !tc.ok {
				_, err := sess.Run(evalBits)
				if tc.client > 0 && !errors.Is(err, ErrOverBudget) {
					t.Fatalf("Run err = %v, want ErrOverBudget", err)
				}
				if tc.server > 0 {
					sess.Close()
					srv.Close()
					if st := srv.Stats(); st.RunsOverBudget != 1 || st.RunsServed != 0 {
						t.Fatalf("server runs over budget/served = %d/%d, want 1/0", st.RunsOverBudget, st.RunsServed)
					}
				}
				return
			}
			const runs = 10
			for run := 0; run < runs; run++ {
				if _, err := sess.Run(evalBits); err != nil {
					t.Fatalf("run %d under a budget of its own %d bytes: %v", run, own, err)
				}
			}
			if cs := sess.Stats(); cs.PoolHits != runs || cs.PoolRefills != 1+runs {
				t.Fatalf("pool hits/refills = %d/%d, want %d/%d: every run a hit carrying a fill", cs.PoolHits, cs.PoolRefills, runs, 1+runs)
			}
		})
	}
}
