package main

import (
	"fmt"
	"io"
	"net"
	"runtime"

	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
	"haac/internal/ot"
	"haac/internal/proto"
	"haac/internal/server"
)

// The peel runs each layer's public entry points standalone, with the
// workload's own circuit and inputs, under spans. proto, server and
// fleet nest strictly (a proxied run contains a direct run contains a
// protocol run), so each one's overhead is its span minus the layer
// below. gc and ot run inside proto and overlap each other across the
// two roles, so they are reported as busy time plus
// proto.overlap_ratio; their shares can sum past 1.

// mallocs reads the process-wide allocation counter.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// both runs the two roles of a lockstep exchange and closes the pipe if
// either fails, so the other cannot stay parked in a pipe read.
func both(a, b io.Closer, sender, receiver func() error) error {
	errc := make(chan error, 1)
	go func() {
		err := sender()
		if err != nil {
			a.Close()
			b.Close()
		}
		errc <- err
	}()
	err := receiver()
	if err != nil {
		a.Close()
		b.Close()
	}
	if serr := <-errc; err == nil {
		err = serr
	}
	return err
}

func (e *serveEnv) peel(r *result) error {
	tr := e.cfg.tr
	iters := e.cfg.sc.peelIters
	parent := tr.begin("peel", "benchmark", -1, -1)
	defer tr.end(parent)
	ands, _, _ := e.c.CountOps()
	n := e.c.EvaluatorInputs
	pooled := e.spec.poolRuns > 0

	for i := 0; i < iters; i++ {
		id := tr.begin("circuit.NewPlan", "circuit", i, parent)
		_, err := circuit.NewPlan(e.c)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	tableBytes, gcAllocs, err := e.peelGC(iters, parent)
	if err != nil {
		return fmt.Errorf("gc: %w", err)
	}
	otBytes, err := e.peelOT(iters, parent)
	if err != nil {
		return fmt.Errorf("ot: %w", err)
	}
	protoBytes, err := e.peelProto(iters, parent)
	if err != nil {
		return fmt.Errorf("proto: %w", err)
	}
	if err := e.peelSessions(e.addrs[0], "server", iters, parent); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if e.proxy == nil {
		if err := e.startProxy(); err != nil {
			return err
		}
	}
	if err := e.peelSessions(e.proxyAddr, "fleet", iters, parent); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}

	garbleMS, evalMS := tr.medianMS("gc.PlanGarbler.Run"), tr.medianMS("gc.PlanEvaluator.Eval")
	otMS := tr.medianMS("ot.Receive")
	if pooled {
		otMS = tr.medianMS("ot.Pool.ReceiveDerand")
	}
	protoMS := tr.medianMS("proto.EvaluatorSession.Run")
	directMS, proxiedMS := tr.medianMS("server.Session.Run"), tr.medianMS("fleet.Session.Run")
	directDial, proxiedDial := tr.medianMS("server.Dial"), tr.medianMS("fleet.Dial")

	r.set("circuit.plan_build_ms", tr.medianMS("circuit.NewPlan"))
	r.set("gc.garble_ns_per_and", ratio(garbleMS*1e6, float64(ands)))
	r.set("gc.eval_ns_per_and", ratio(evalMS*1e6, float64(ands)))
	r.set("gc.and_gates_per_run", float64(ands))
	r.set("gc.allocs_per_run", gcAllocs)
	r.set("proto.table_bytes_per_and", ratio(tableBytes, float64(ands)))
	r.set("proto.bytes_per_run", protoBytes)
	r.set("proto.run_ms", protoMS)
	r.set("proto.overlap_ratio", ratio(garbleMS+evalMS+otMS, protoMS))
	r.set("ot.derand_us_per_ot", ratio(tr.medianMS("ot.Pool.ReceiveDerand")*1e3, float64(n)))
	r.set("ot.fill_us_per_ot", ratio(tr.medianMS("ot.Pool.Fill")*1e3, float64(n)))
	r.set("ot.bytes_per_ot", otBytes)
	r.set("ot.base_ms", tr.medianMS("ot.NewReceiverPool"))
	r.set("ot.iknp_us_per_ot", ratio(tr.medianMS("ot.Receive")*1e3, float64(n)))
	r.set("server.run_overhead_ms", directMS-protoMS)
	r.set("server.dial_ms", directDial)
	r.set("fleet.dial_overhead_ms", proxiedDial-directDial)
	r.set("fleet.run_overhead_ms", proxiedMS-directMS)
	r.detail = append(r.detail, fmt.Sprintf("  peel, median of %d: garble %.3f ms, eval %.3f ms, online ot %.3f ms (m=%d), proto pair over loopback %.3f ms, Session.Run direct %.3f ms, via proxy %.3f ms; Dial direct %.3f ms, via proxy %.3f ms",
		iters, garbleMS, evalMS, otMS, n, protoMS, directMS, proxiedMS, directDial, proxiedDial))
	return nil
}

// peelGC garbles and evaluates the workload's plan standalone, checking
// the decoded outputs. It returns the table bytes one run emits and the
// heap allocations per garble+evaluate.
func (e *serveEnv) peelGC(iters, parent int) (tableBytes, allocs float64, err error) {
	tr := e.cfg.tr
	h := gc.RekeyedHasher{} // the serving layer's default
	pg := gc.NewPlanGarbler(e.plan, h, 1)
	defer pg.Close()
	pe := gc.NewPlanEvaluator(e.plan, h, 1)
	defer pe.Close()
	src := label.NewSource(uint64(e.cfg.seed) + 1)
	var count uint64
	for i := -1; i < iters; i++ { // iteration -1 warms the runners' arenas
		t := tr
		if i < 0 {
			t = nil
		}
		k := (i + ringSize) % ringSize
		pg.Begin(src)
		tables := 0
		m0 := mallocs()
		id := t.begin("gc.PlanGarbler.Run", "gc", i, parent)
		garbled, err := pg.Run(func(ts []gc.Material) error { tables += len(ts); return nil })
		t.end(id)
		if err != nil {
			return 0, 0, err
		}
		m1 := mallocs()
		in, err := garbled.EncodeInputs(e.c, e.g, e.ring[k])
		if err != nil {
			return 0, 0, err
		}
		m2 := mallocs()
		id = t.begin("gc.PlanEvaluator.Eval", "gc", i, parent)
		labels, err := pe.Eval(in, garbled.Tables)
		t.end(id)
		if err != nil {
			return 0, 0, err
		}
		m3 := mallocs()
		out, err := garbled.Decode(labels)
		if err != nil {
			return 0, 0, err
		}
		if err := e.check(k, out); err != nil {
			return 0, 0, err
		}
		if i >= 0 {
			count += (m1 - m0) + (m3 - m2)
		}
		tableBytes = float64(tables * gc.MaterialSize)
	}
	return tableBytes, ratio(float64(count), float64(iters)), nil
}

// otBatch builds the message pairs and packed choices for one batch the
// size of the workload's evaluator input.
func (e *serveEnv) otBatch(k int) ([]ot.Pair, ot.Bitset) {
	src := label.NewSource(uint64(e.cfg.seed) + 2)
	pairs := make([]ot.Pair, e.c.EvaluatorInputs)
	for i := range pairs {
		pairs[i] = ot.Pair{M0: src.Next(), M1: src.Next()}
	}
	return pairs, ot.BitsetFromBools(e.ring[k])
}

func checkOT(pairs []ot.Pair, choices ot.Bitset, got []label.L) error {
	for i, p := range pairs {
		want := p.M0
		if choices.Bit(i) == 1 {
			want = p.M1
		}
		if got[i] != want {
			return fmt.Errorf("transfer %d delivered the wrong message", i)
		}
	}
	return nil
}

// peelOT runs the pool (base OTs, fill, derandomization) and the
// on-demand IKNP extension over in-memory pipes at the workload's batch
// size. It returns the pooled path's wire bytes per OT (fill + derand).
func (e *serveEnv) peelOT(iters, parent int) (bytesPerOT float64, err error) {
	tr := e.cfg.tr
	n := e.c.EvaluatorInputs
	pairs, choices := e.otBatch(0)
	out := make([]label.L, n)

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	st := &proto.Stats{}
	ib := proto.Instrument(b, st) // the receiver's sends + receives count every byte once
	var afterBase int64
	err = both(a, b, func() error {
		var sp *ot.Pool
		for i := 0; i < iters; i++ { // base OTs repeat; the last pool is the one filled
			id := tr.begin("ot.NewSenderPool", "ot", i, parent)
			p, err := ot.NewSenderPool(a, ot.DH)
			tr.end(id)
			if err != nil {
				return err
			}
			sp = p
		}
		for i := 0; i < iters; i++ {
			id := tr.begin("ot.Pool.Fill.sender", "ot", i, parent)
			err := sp.Fill(a, n)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("ot.Pool.SendDerand", "ot", i, parent)
			err = sp.SendDerand(a, pairs)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		var rp *ot.Pool
		for i := 0; i < iters; i++ {
			id := tr.begin("ot.NewReceiverPool", "ot", i, parent)
			p, err := ot.NewReceiverPool(ib, ot.DH)
			tr.end(id)
			if err != nil {
				return err
			}
			rp = p
		}
		afterBase = st.BytesSent.Load() + st.BytesReceived.Load()
		for i := 0; i < iters; i++ {
			id := tr.begin("ot.Pool.Fill", "ot", i, parent)
			err := rp.Fill(ib, n)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("ot.Pool.ReceiveDerand", "ot", i, parent)
			err = rp.ReceiveDerand(ib, choices, out)
			tr.end(id)
			if err != nil {
				return err
			}
			if err := checkOT(pairs, choices, out); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	bytesPerOT = ratio(float64(st.BytesSent.Load()+st.BytesReceived.Load()-afterBase), float64(iters*n))

	c, d := net.Pipe()
	defer c.Close()
	defer d.Close()
	for i := 0; i < iters; i++ {
		var got []label.L
		err := both(c, d, func() error {
			id := tr.begin("ot.Send", "ot", i, parent)
			defer tr.end(id)
			return ot.Send(c, ot.IKNP, pairs)
		}, func() error {
			id := tr.begin("ot.Receive", "ot", i, parent)
			defer tr.end(id)
			var err error
			got, err = ot.ReceiveBitset(d, ot.IKNP, choices)
			return err
		})
		if err != nil {
			return 0, err
		}
		if err := checkOT(pairs, choices, got); err != nil {
			return 0, err
		}
	}
	return bytesPerOT, nil
}

// loopbackPair returns the two ends of one loopback TCP connection.
func loopbackPair() (dialled, accepted net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	dialled, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	accepted, err = ln.Accept()
	if err != nil {
		dialled.Close()
		return nil, nil, err
	}
	return dialled, accepted, nil
}

// peelProto runs a GarblerSession/EvaluatorSession pair with plan
// engines both ends and the workload's OT mode (pool refilled outside
// the span before every run). The pair talks over loopback TCP like the
// served sessions above it, not over net.Pipe: the pipe's rendezvous on
// every write made the bare protocol slower than the served one on
// small circuits, and the subtraction came out negative. It returns the
// evaluator-side wire bytes of one run.
func (e *serveEnv) peelProto(iters, parent int) (bytesPerRun float64, err error) {
	tr := e.cfg.tr
	n := e.c.EvaluatorInputs
	ev, ga, err := loopbackPair()
	if err != nil {
		return 0, err
	}
	defer ga.Close()
	defer ev.Close()
	st := &proto.Stats{}
	gs, err := proto.NewGarblerSession(ga, proto.Options{Plan: e.plan, OT: ot.IKNP})
	if err != nil {
		return 0, err
	}
	defer gs.Close()
	es, err := proto.NewEvaluatorSession(ev, e.c, proto.Options{Plan: e.plan, OT: ot.IKNP, Stats: st})
	if err != nil {
		return 0, err
	}
	defer es.Close()
	var sp, rp *ot.Pool
	if e.spec.poolRuns > 0 {
		err := both(ga, ev, func() (err error) {
			sp, err = ot.NewSenderPool(ga, ot.DH)
			return err
		}, func() (err error) {
			rp, err = ot.NewReceiverPool(ev, ot.DH)
			return err
		})
		if err != nil {
			return 0, err
		}
		gs.SetPool(sp)
		es.SetPool(rp)
	}
	for i := -1; i < iters; i++ { // iteration -1 warms both runners
		t := tr
		if i < 0 {
			t = nil
		}
		k := (i + ringSize) % ringSize
		if sp != nil {
			if err := both(ga, ev, func() error { return sp.Fill(ga, n) }, func() error { return rp.Fill(ev, n) }); err != nil {
				return 0, err
			}
		}
		bytes0 := st.BytesSent.Load() + st.BytesReceived.Load()
		var out []bool
		err := both(ga, ev, func() error {
			id := t.begin("proto.GarblerSession.Run", "proto", i, parent)
			defer t.end(id)
			_, err := gs.Run(e.g)
			return err
		}, func() error {
			id := t.begin("proto.EvaluatorSession.Run", "proto", i, parent)
			defer t.end(id)
			var err error
			out, err = es.Run(e.ring[k])
			return err
		})
		if err != nil {
			return 0, err
		}
		if err := e.check(k, out); err != nil {
			return 0, err
		}
		if sp != nil && !gs.LastRunPooled() {
			return 0, fmt.Errorf("run %d missed a freshly filled pool", i)
		}
		bytesPerRun = float64(st.BytesSent.Load() + st.BytesReceived.Load() - bytes0)
	}
	return bytesPerRun, nil
}

// peelSessions dials addr iters times and then runs iters verified runs
// on the last session, with the workload's client options. layer is
// "server" for a backend's own address and "fleet" for the proxy's.
func (e *serveEnv) peelSessions(addr, layer string, iters, parent int) error {
	tr := e.cfg.tr
	var s *server.Session
	for i := 0; i < iters; i++ {
		if s != nil {
			s.Close()
		}
		id := tr.begin(layer+".Dial", layer, i, parent)
		var err error
		s, err = server.Dial(addr, e.w.Name, e.c, e.options())
		tr.end(id)
		if err != nil {
			return err
		}
	}
	defer s.Close()
	for i := -1; i < iters; i++ { // iteration -1 warms the session
		t := tr
		if i < 0 {
			t = nil
		}
		k := (i + ringSize) % ringSize
		id := t.begin(layer+".Session.Run", layer, i, parent)
		out, err := s.Run(e.ring[k])
		t.end(id)
		if err != nil {
			return err
		}
		if err := e.check(k, out); err != nil {
			return err
		}
	}
	return nil
}
