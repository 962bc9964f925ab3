package proto

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"haac/internal/circuit"
	"haac/internal/faultnet"
	"haac/internal/ot"
	"haac/internal/workloads"
)

// poolPair sets up lockstep sender/receiver pools over the session
// pair's connection endpoints and attaches them.
func attachPools(t *testing.T, gs *GarblerSession, es *EvaluatorSession, ga, ev net.Conn, fill int) (*ot.Pool, *ot.Pool) {
	t.Helper()
	var sp *ot.Pool
	errc := make(chan error, 1)
	go func() {
		var err error
		sp, err = ot.NewSenderPool(ga, ot.Insecure)
		if err == nil && fill > 0 {
			err = sp.Fill(ga, fill)
		}
		errc <- err
	}()
	rp, err := ot.NewReceiverPool(ev, ot.Insecure)
	if err != nil {
		t.Fatalf("receiver pool: %v", err)
	}
	if fill > 0 {
		if err := rp.Fill(ev, fill); err != nil {
			t.Fatalf("receiver fill: %v", err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("sender pool: %v", err)
	}
	gs.SetPool(sp)
	es.SetPool(rp)
	return sp, rp
}

// TestSessionPooledRuns: runs served from attached pools match the
// oracle, consume the pools in lockstep, and fall back to the on-demand
// protocol — counted as misses — once the pool is short.
func TestSessionPooledRuns(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	m := c.EvaluatorInputs
	gs, es, ga, ev := sessionPairConns(t, w, ot.Insecure)
	// Enough for exactly two pooled runs; the third must miss.
	sp, rp := attachPools(t, gs, es, ga, ev, 2*m)

	for run := 0; run < 3; run++ {
		g, e := w.Inputs(int64(run))
		want, err := c.Eval(g, e)
		if err != nil {
			t.Fatal(err)
		}
		type res struct {
			out []bool
			err error
		}
		ch := make(chan res, 1)
		go func() {
			out, err := gs.Run(g)
			ch <- res{append([]bool(nil), out...), err}
		}()
		out, err := es.Run(e)
		if err != nil {
			t.Fatalf("run %d: evaluator: %v", run, err)
		}
		gr := <-ch
		if gr.err != nil {
			t.Fatalf("run %d: garbler: %v", run, gr.err)
		}
		for i := range want {
			if out[i] != want[i] || gr.out[i] != want[i] {
				t.Fatalf("run %d output %d: eval=%v garb=%v want=%v", run, i, out[i], gr.out[i], want[i])
			}
		}
		wantPooled := run < 2
		if gs.LastRunPooled() != wantPooled {
			t.Fatalf("run %d: LastRunPooled=%v, want %v", run, gs.LastRunPooled(), wantPooled)
		}
		if sp.Level() != rp.Level() {
			t.Fatalf("run %d: pool levels diverged %d/%d", run, sp.Level(), rp.Level())
		}
	}
	if sp.Level() != 0 {
		t.Fatalf("final level %d, want 0", sp.Level())
	}
}

// TestSessionResetDetachesPool: rebinding a session to a new connection
// must drop the pool — its correlations die with the old base-OT state.
func TestSessionResetDetachesPool(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	gs, es, ga, ev := sessionPairConns(t, w, ot.Insecure)
	attachPools(t, gs, es, ga, ev, 64)
	ga2, ev2 := net.Pipe()
	t.Cleanup(func() { ga2.Close(); ev2.Close() })
	gs.Reset(ga2, ot.Insecure)
	es.Reset(ev2)
	if gs.pool != nil || es.pool != nil {
		t.Fatal("Reset left a pool attached")
	}
	if gs.LastRunPooled() {
		t.Fatal("Reset left lastPooled set")
	}
}

// TestSessionResetDropsPendingFill: a hit whose op fails before Run
// (a refused ack, a write error under a retry policy) leaves its in-run
// fill decided. Reset must drop it with the rest of the run's state: if
// the redialed connection's pool misses, the run must not write fill
// columns the garbler never reads.
func TestSessionResetDropsPendingFill(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	m := c.EvaluatorInputs
	gs, es, ga, ev := sessionPairConns(t, w, ot.Insecure)
	sp, rp := attachPools(t, gs, es, ga, ev, m)
	sp.SetTarget(4 * m)
	rp.SetTarget(4 * m)
	g, e := w.Inputs(1)
	if _, hit, err := es.AppendCorrection(nil, e); err != nil || !hit {
		t.Fatalf("AppendCorrection: hit=%v err=%v", hit, err)
	}
	if es.due == 0 {
		t.Fatal("the hit carries no in-run fill; the case is not set up")
	}

	ga2, ev2 := net.Pipe()
	t.Cleanup(func() { ga2.Close(); ev2.Close() })
	// A hang guard only: the run takes milliseconds when it is right.
	deadline := time.Now().Add(10 * time.Second)
	ga2.SetDeadline(deadline)
	ev2.SetDeadline(deadline)
	gs.Reset(ga2, ot.Insecure)
	es.Reset(ev2)
	attachPools(t, gs, es, ga2, ev2, m/2) // too few: the next run misses

	want, err := c.Eval(g, e)
	if err != nil {
		t.Fatal(err)
	}
	gout, eout, gerr, eerr := runPair(gs, es, g, e)
	if gerr != nil || eerr != nil {
		t.Fatalf("run after Reset: garbler %v, evaluator %v", gerr, eerr)
	}
	if gs.LastRunPooled() {
		t.Fatal("the run after Reset was pooled; it must miss")
	}
	for i := range want {
		if gout[i] != want[i] || eout[i] != want[i] {
			t.Fatalf("output %d: eval=%v garb=%v want=%v", i, eout[i], gout[i], want[i])
		}
	}
}

// sessionPairConns is sessionPair but also returns the raw connection
// endpoints so pools can be negotiated over them.
func sessionPairConns(t *testing.T, w workloads.Workload, otp ot.Protocol) (*GarblerSession, *EvaluatorSession, net.Conn, net.Conn) {
	t.Helper()
	c := w.Build()
	p, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	ga, ev := net.Pipe()
	t.Cleanup(func() { ga.Close(); ev.Close() })
	gs, err := NewGarblerSession(ga, Options{Plan: p, OT: otp, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	es, err := NewEvaluatorSession(ev, c, Options{OT: otp, Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gs.Close(); es.Close() })
	return gs, es, ga, ev
}

// runPair plays one run on both sessions and returns both results.
func runPair(gs *GarblerSession, es *EvaluatorSession, g, e []bool) (gout, eout []bool, gerr, eerr error) {
	ch := make(chan error, 1)
	go func() {
		var err error
		gout, err = gs.Run(g)
		gout = append([]bool(nil), gout...)
		ch <- err
	}()
	eout, eerr = es.Run(e)
	return gout, eout, <-ch, eerr
}

// TestSessionInRunFills: with both pools given the same target, every
// run that leaves its pool half short tops it back up inside the run —
// the evaluator's fill columns cross net.Pipe while the tables stream
// the other way — so every run is a hit, both ends report the same
// NextFill before each run, and the levels stay in lockstep.
func TestSessionInRunFills(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	m := c.EvaluatorInputs
	gs, es, ga, ev := sessionPairConns(t, w, ot.Insecure)
	sp, rp := attachPools(t, gs, es, ga, ev, 4*m)
	sp.SetTarget(4 * m)
	rp.SetTarget(4 * m)

	fills := 0
	for run := 0; run < 8; run++ {
		g, e := w.Inputs(int64(run))
		want, err := c.Eval(g, e)
		if err != nil {
			t.Fatal(err)
		}
		fill := gs.NextFill()
		if es.NextFill() != fill {
			t.Fatalf("run %d: the ends disagree on the fill: %d vs %d", run, fill, es.NextFill())
		}
		if fill > 0 {
			fills++
		}
		gout, eout, gerr, eerr := runPair(gs, es, g, e)
		if gerr != nil || eerr != nil {
			t.Fatalf("run %d: garbler %v, evaluator %v", run, gerr, eerr)
		}
		for i := range want {
			if eout[i] != want[i] || gout[i] != want[i] {
				t.Fatalf("run %d output %d diverged from the oracle", run, i)
			}
		}
		if !gs.LastRunPooled() {
			t.Fatalf("run %d missed", run)
		}
		if sp.Level() != rp.Level() {
			t.Fatalf("run %d: pool levels diverged %d/%d", run, sp.Level(), rp.Level())
		}
		if wantLevel := 4*m - (run%2+1)*m; fill > 0 && sp.Level() != 4*m || fill == 0 && sp.Level() != wantLevel {
			t.Fatalf("run %d (fill %d): level %d", run, fill, sp.Level())
		}
	}
	if fills != 4 {
		t.Fatalf("%d of 8 runs carried a fill, want every second one", fills)
	}
}

// TestSessionInRunFillDrop: the evaluator's connection drops while an
// in-run fill is writing. Both Runs still join their fill and return a
// typed ErrPeerClosed, and once both sessions are closed no goroutine of
// theirs is left.
func TestSessionInRunFillDrop(t *testing.T) {
	w := workloads.AddN(16)
	c := w.Build()
	m := c.EvaluatorInputs
	p, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	ga, ev := net.Pipe()
	gs, err := NewGarblerSession(ga, Options{Plan: p, OT: ot.Insecure, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	es, err := NewEvaluatorSession(ev, c, Options{OT: ot.Insecure, Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	sp, rp := attachPools(t, gs, es, ga, ev, 2*m)
	sp.SetTarget(2 * m)
	rp.SetTarget(2 * m)
	// Rebind the evaluator to a connection that drops once half the
	// fill's bytes could have crossed past the garbler's first flush:
	// the fill starts once the masked pairs are in and writes in 16-byte
	// pieces, so it is still writing. Reset detaches the pool; reattach
	// it.
	first := int64(5+(m+7)/8) + headerSize + int64(16*c.GarblerInputs) + int64(32*m)
	if c.HasConst {
		first += 32
	}
	es.Reset(faultnet.Wrap(ev, faultnet.Plan{DropAfterBytes: first + ot.FillBytes(m)/2, MaxWriteChunk: 16}, nil))
	es.SetPool(rp)
	if gs.NextFill() == 0 || es.NextFill() == 0 {
		t.Fatal("the run must carry a fill")
	}
	g, e := w.Inputs(1)
	_, _, gerr, eerr := runPair(gs, es, g, e)
	if !errors.Is(gerr, ErrPeerClosed) || !errors.Is(eerr, ErrPeerClosed) {
		t.Fatalf("garbler %v, evaluator %v; want both ErrPeerClosed", gerr, eerr)
	}
	gs.Close()
	es.Close()
	ga.Close()
	ev.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after both sessions closed, baseline %d", n, baseline)
	}
}

// TestSessionPiecedRuns is the deadlock guard of the pieced input
// phase: a batch of three ot.DerandPiece pieces over net.Pipe, where a
// write waits for the peer's read, so the evaluator's pieces must leave
// from its pool goroutine while its run reads the garbler's answers.
// With and without an in-run fill (which follows the pieces on the same
// goroutine), every run is a hit that matches the oracle, and the pools
// stay in lockstep.
func TestSessionPiecedRuns(t *testing.T) {
	w := workloads.AddN(2*ot.DerandPiece + 5)
	c := w.Build()
	m := c.EvaluatorInputs
	for _, fills := range []bool{false, true} {
		t.Run(map[bool]string{false: "no-fill", true: "in-run-fill"}[fills], func(t *testing.T) {
			gs, es, ga, ev := sessionPairConns(t, w, ot.Insecure)
			sp, rp := attachPools(t, gs, es, ga, ev, 3*m)
			if fills {
				sp.SetTarget(3 * m)
				rp.SetTarget(3 * m)
			}
			for run := 0; run < 3; run++ {
				g, e := w.Inputs(int64(run))
				want, err := c.Eval(g, e)
				if err != nil {
					t.Fatal(err)
				}
				if fill := es.NextFill(); (fill > 0) != fills || gs.NextFill() != fill {
					t.Fatalf("run %d: fills %d/%d, want a fill: %v", run, gs.NextFill(), fill, fills)
				}
				gout, eout, gerr, eerr := runPair(gs, es, g, e)
				if gerr != nil || eerr != nil {
					t.Fatalf("run %d: garbler %v, evaluator %v", run, gerr, eerr)
				}
				for i := range want {
					if eout[i] != want[i] || gout[i] != want[i] {
						t.Fatalf("run %d output %d diverged from the oracle", run, i)
					}
				}
				if !gs.LastRunPooled() || sp.Level() != rp.Level() {
					t.Fatalf("run %d: pooled %v, levels %d/%d", run, gs.LastRunPooled(), sp.Level(), rp.Level())
				}
			}
		})
	}
}
