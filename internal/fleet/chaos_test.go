package fleet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"haac/internal/circuit"
	"haac/internal/faultnet"
	"haac/internal/ot"
	"haac/internal/server"
	"haac/internal/workloads"
)

// TestChaosBackendKillByteIdentical is the fleet dimension of the chaos
// suite: three backends behind fault-injected transports (random
// connection drops on every backend's listener, so sessions sever
// mid-handshake and mid-OT), with one backend hard-killed while eight
// client sessions run continuously through the proxy. Every run must
// still produce output byte-identical to the plaintext oracle — the
// client retry policy redials the fleet, the breaker ejects the dead
// backend, and rendezvous routing re-homes its sessions on the
// survivors. Run under -race in CI.
func TestChaosBackendKillByteIdentical(t *testing.T) {
	ws := []workloads.Workload{workloads.AddN(8), workloads.DotProduct(2, 8)}
	specs := specsFor(ws...)

	const nBackends = 3
	srvs := make([]*server.Server, nBackends)
	addrs := make([]string, nBackends)
	fstats := make([]*faultnet.Stats, nBackends)
	for i := range srvs {
		srv, err := server.New(server.Config{
			Circuits:        specs,
			Seed:            42,
			AllowInsecureOT: true,
			DrainTimeout:    10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fln := faultnet.WrapListener(ln, faultnet.Plan{
			Seed:     uint64(7000 + i),
			DropRate: 0.03,
		})
		go srv.Serve(fln)
		srvs[i], addrs[i], fstats[i] = srv, ln.Addr().String(), fln.Stats()
	}
	defer func() {
		for _, srv := range srvs {
			srv.Close()
		}
	}()

	f, fleetAddr := startFleet(t, Config{
		Backends:      []Backend{{Addr: addrs[0]}, {Addr: addrs[1]}, {Addr: addrs[2]}},
		ProbeInterval: -1,
		FailThreshold: 2,
		ReopenAfter:   15 * time.Millisecond,
		DrainTimeout:  200 * time.Millisecond,
	})

	// Kill the backend that rendezvous ranks first for ws[0], so its
	// sessions demonstrably re-home.
	victim := 0
	first := rankAddrs(circuit.Digest(ws[0].Build()), addrs)[0]
	for i, addr := range addrs {
		if addr == first {
			victim = i
		}
	}

	const nSessions = 8
	const runsPerSession = 6
	var warm sync.WaitGroup // first run of every session done
	warm.Add(nSessions)
	var wg sync.WaitGroup
	errc := make(chan error, nSessions)
	var reconnects atomic.Uint64
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			warmed := false
			defer func() {
				if !warmed {
					warm.Done()
				}
			}()
			w := ws[i%len(ws)]
			c := w.Build()
			sess, err := server.Dial(fleetAddr, w.Name, c, server.Options{
				OT: ot.Insecure,
				Retry: server.RetryPolicy{
					MaxAttempts:      200,
					BaseBackoff:      time.Millisecond,
					MaxBackoff:       8 * time.Millisecond,
					HandshakeTimeout: 250 * time.Millisecond,
					Seed:             uint64(9000 + i),
				},
			})
			if err != nil {
				errc <- fmt.Errorf("session %d: dial: %w", i, err)
				return
			}
			defer func() {
				reconnects.Add(sess.Stats().Reconnects)
				sess.Close()
			}()
			for run := 0; run < runsPerSession; run++ {
				evalBits, want := oracle(t, w, c, int64(i*100+run))
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
				if run == 0 {
					warmed = true
					warm.Done()
				}
			}
		}(i)
	}

	// Hard-kill the victim once every session has completed a run — the
	// fleet is warm and loaded, so the kill lands on live splices.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		warm.Wait()
		srvs[victim].Close()
	}()
	wg.Wait()
	<-killed
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	var drops uint64
	for _, fs := range fstats {
		drops += fs.Drops.Load()
	}
	if drops == 0 {
		t.Error("faultnet injected no drops; raise DropRate so the chaos dimension bites")
	}
	if reconnects.Load() == 0 {
		t.Error("reconnects = 0, want > 0: the backend kill should have broken and healed sessions")
	}
	t.Logf("backend-kill chaos: victim=%s, %d injected drops, %d reconnects, fleet stats %+v",
		addrs[victim], drops, reconnects.Load(), f.Stats())
}
