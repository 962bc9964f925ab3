package bench

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"haac/internal/circuit"
	"haac/internal/ot"
	"haac/internal/server"
	"haac/internal/workloads"
)

// Serving experiment: the paper's setup-amortization premise at the
// fleet level. One serving garbler answers 1, 4 and 16 concurrent
// evaluator sessions over loopback TCP; the circuit's plan is built
// once and shared, every session holds pooled runners, and both ends
// run the plan engines. The experiment reports throughput (runs/sec —
// reported, never asserted: single-CPU CI makes wall-clock comparisons
// meaningless), steady-state heap allocations per run across the whole
// process (client and server sides combined), transport bytes per run,
// and the plan-cache counters proving the one-build property. A final
// saturation level caps the server below the offered sessions: the
// excess connections must shed with a typed busy refusal while the
// admitted ones serve unperturbed — the load-shedding contract a
// sharded front proxy routes around.

// ServingRow reports one concurrency level.
type ServingRow struct {
	Sessions       int // sessions offered (dial attempts)
	MaxSessions    int // admission cap (0 = unlimited)
	Admitted       int // sessions that passed admission
	Refused        uint64
	RunsPerSession int
	Runs           int // total measured runs
	RunsPerSec     float64
	AllocsPerRun   float64 // process-wide, both roles
	BytesOutPerRun float64 // server->clients transport bytes
	CacheHits      uint64
	CacheMisses    uint64
	// PlanBuilds counts process-wide circuit.NewPlan calls across the
	// whole level: the server's one cache build plus the one plan the
	// level's clients share — 2 regardless of session count.
	PlanBuilds uint64
	// Pooled marks the precomputed-OT level; PoolHits counts its
	// measured runs served from the pool and BaseOTRounds the base-OT
	// rounds spent inside the measured window (asserted 0 — the tier's
	// whole point).
	Pooled       bool
	PoolHits     uint64
	BaseOTRounds uint64
}

// servingWorkload picks the measured circuit per scale.
func servingWorkload(s Scale) workloads.Workload {
	if s == Paper {
		return workloads.DotProduct(16, 32)
	}
	return workloads.DotProduct(4, 16)
}

// Serving measures the serving layer at 1, 4 and 16 concurrent
// evaluator sessions.
func (e *Env) Serving() ([]ServingRow, string, error) {
	w := servingWorkload(e.Scale)
	c := w.Build()
	garblerBits, _ := w.Inputs(3)
	runsPerSession := 24
	if e.Scale == Paper {
		runsPerSession = 8
	}

	var rows []ServingRow
	for _, sessions := range []int{1, 4, 16} {
		row, err := e.servingLevel(w, c, garblerBits, sessions, 0, runsPerSession, false)
		if err != nil {
			return nil, "", fmt.Errorf("serving: %d sessions: %w", sessions, err)
		}
		rows = append(rows, row)
	}
	// Saturation: offer 16 sessions against an 8-session cap; the 8
	// over-limit connections shed at handshake while the admitted 8
	// serve every run.
	row, err := e.servingLevel(w, c, garblerBits, 16, 8, runsPerSession, false)
	if err != nil {
		return nil, "", fmt.Errorf("serving: saturation: %w", err)
	}
	rows = append(rows, row)
	// Pooled steady state: one session on the precomputed-OT tier. The
	// dial pays base OTs and an initial fill once; the measured window
	// must then run entirely from the pool — zero base-OT rounds, every
	// run a pool hit (both asserted in servingLevel).
	row, err = e.servingLevel(w, c, garblerBits, 1, 0, runsPerSession, true)
	if err != nil {
		return nil, "", fmt.Errorf("serving: pooled: %w", err)
	}
	rows = append(rows, row)

	header := []string{"sessions", "cap", "OT", "admitted", "refused", "runs", "runs/s", "allocs/run", "KB out/run", "pool hit/baseOT", "cache hit/miss", "plan builds"}
	var cells [][]string
	for _, r := range rows {
		cap := "-"
		if r.MaxSessions > 0 {
			cap = fmt.Sprint(r.MaxSessions)
		}
		tier, pool := "on-demand", "-"
		if r.Pooled {
			tier = "pooled"
			pool = fmt.Sprintf("%d/%d", r.PoolHits, r.BaseOTRounds)
		}
		cells = append(cells, []string{
			fmt.Sprint(r.Sessions),
			cap,
			tier,
			fmt.Sprint(r.Admitted),
			fmt.Sprint(r.Refused),
			fmt.Sprint(r.Runs),
			fmt.Sprintf("%.0f", r.RunsPerSec),
			fmt.Sprintf("%.1f", r.AllocsPerRun),
			fmt.Sprintf("%.0f", r.BytesOutPerRun/1024),
			pool,
			fmt.Sprintf("%d/%d", r.CacheHits, r.CacheMisses),
			fmt.Sprint(r.PlanBuilds),
		})
	}
	s := table(header, cells)
	s += fmt.Sprintf("\n(one haacd-style server, %s over loopback TCP, plan engines both ends;\n"+
		"every level shows exactly 1 cache miss and 2 plan builds — one server-side shared\n"+
		"by all admitted sessions, one client-side shared by the level's dialers (sessions\n"+
		"dial sequentially, so only completed builds count as hits); the capped row sheds\n"+
		"its excess connections with a typed busy refusal at handshake; the pooled row\n"+
		"banks OT correlations at dial time and its measured window is asserted to spend\n"+
		"zero base-OT rounds with every run a pool hit; allocs/run counts the whole\n"+
		"process, client sessions included; throughput is reported for shape only, not\n"+
		"asserted)\n", w.Name)
	return rows, s, nil
}

// servingLevel runs one concurrency level end to end and measures it.
// maxSessions > 0 caps admission below the offered session count; the
// shed connections must fail typed with ErrBusy. pooled switches the
// level to the precomputed-OT tier, sized so the measured window never
// needs a background refill, and asserts its steady-state contract.
func (e *Env) servingLevel(w workloads.Workload, c *circuit.Circuit, garblerBits []bool, sessions, maxSessions, runsPerSession int, pooled bool) (ServingRow, error) {
	row := ServingRow{Sessions: sessions, MaxSessions: maxSessions, RunsPerSession: runsPerSession, Pooled: pooled}

	buildsBefore := circuit.PlanBuilds()
	srv, err := server.New(server.Config{
		Circuits: []server.CircuitSpec{{
			ID:      w.Name,
			Circuit: c,
			Inputs:  func() []bool { return garblerBits },
		}},
		Seed:            17,
		MaxSessions:     maxSessions,
		AllowInsecureOT: true,
	})
	if err != nil {
		return row, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return row, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()

	// One client-side plan shared by every session of the level.
	plan, err := circuit.NewPlan(c)
	if err != nil {
		return row, err
	}
	opts := server.Options{OT: ot.Insecure, Plan: plan}
	if pooled {
		// Twice the level's whole demand (warm-up run included): the
		// pool ends the window at half target, so the background refill
		// never fires inside the measurement.
		opts = server.Options{Plan: plan, PoolSize: 2 * (runsPerSession + 1) * c.EvaluatorInputs}
	}
	conns := make([]*server.Session, 0, sessions)
	for i := 0; i < sessions; i++ {
		sess, err := server.Dial(ln.Addr().String(), w.Name, c, opts)
		if errors.Is(err, server.ErrBusy) {
			continue // shed at admission; counted via SessionsRefused
		}
		if err != nil {
			return row, err
		}
		defer sess.Close()
		conns = append(conns, sess)
	}
	if maxSessions > 0 && len(conns) != maxSessions {
		return row, fmt.Errorf("admitted %d sessions under a cap of %d", len(conns), maxSessions)
	}
	row.Admitted = len(conns)
	row.Runs = len(conns) * runsPerSession
	_, evalBits := w.Inputs(5)
	want, err := c.Eval(garblerBits, evalBits)
	if err != nil {
		return row, err
	}

	drive := func(sess *server.Session, runs int) error {
		for r := 0; r < runs; r++ {
			out, err := sess.Run(evalBits)
			if err != nil {
				return err
			}
			for j := range want {
				if out[j] != want[j] {
					return fmt.Errorf("output %d diverged from plaintext oracle", j)
				}
			}
		}
		return nil
	}
	// Warm-up: one run per session settles pools, runners and the plan
	// cache before the measured window.
	for _, sess := range conns {
		if err := drive(sess, 1); err != nil {
			return row, err
		}
	}

	if pooled && !conns[0].Pooled() {
		return row, fmt.Errorf("server did not grant the pooled tier")
	}
	bytesBefore := srv.Stats().BytesOut
	// Hits are read client-side: the server counts a run's hit only
	// after it has read the evaluator's result, so its counter can still
	// be absorbing the warm-up run when the window opens.
	poolHits := func() (n uint64) {
		for _, sess := range conns {
			n += sess.Stats().PoolHits
		}
		return n
	}
	hitsBefore := poolHits()
	roundsBefore := ot.BaseOTRounds()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for _, sess := range conns {
		wg.Add(1)
		go func(sess *server.Session) {
			defer wg.Done()
			if err := drive(sess, runsPerSession); err != nil {
				errs <- err
			}
		}(sess)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	close(errs)
	for err := range errs {
		return row, err
	}

	total := float64(row.Runs)
	row.RunsPerSec = total / elapsed.Seconds()
	row.AllocsPerRun = float64(after.Mallocs-before.Mallocs) / total
	row.BytesOutPerRun = float64(srv.Stats().BytesOut-bytesBefore) / total
	st := srv.Stats()
	row.CacheHits, row.CacheMisses = st.CacheHits, st.CacheMisses
	row.Refused = st.SessionsRefused
	row.PlanBuilds = circuit.PlanBuilds() - buildsBefore
	if pooled {
		row.PoolHits = poolHits() - hitsBefore
		row.BaseOTRounds = ot.BaseOTRounds() - roundsBefore
		if row.BaseOTRounds != 0 {
			return row, fmt.Errorf("pooled steady state spent %d base-OT rounds, want 0", row.BaseOTRounds)
		}
		if row.PoolHits != uint64(row.Runs) {
			return row, fmt.Errorf("pooled steady state: %d pool hits over %d runs", row.PoolHits, row.Runs)
		}
	}
	return row, nil
}
