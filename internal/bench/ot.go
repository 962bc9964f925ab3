package bench

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
	"haac/internal/ot"
	"haac/internal/proto"
	"haac/internal/workloads"
)

// Input-phase and transport experiments: the 2PC costs that sit outside
// garbling itself. OTExtension measures the batched IKNP pipeline (the
// evaluator-input phase) across batch sizes; Transport measures the
// table/label stream of a full 2PC run. Both record bytes
// moved and heap allocations alongside throughput — on this repository's
// "wires are the bottleneck" thesis, allocations and copies per item are
// the software analogue of the paper's per-wire DRAM traffic, so the
// experiments pin them per batch rather than per item.

// OTRow reports one OT-extension configuration.
type OTRow struct {
	Protocol string
	M        int // transfers per run
	TotalNs  int64
	NsPerOT  float64
	// WireBytes is the total bytes both directions for the batch.
	WireBytes int64
	// Allocs is the heap-allocation count of one whole run (both
	// parties); AllocsPerOT divides it out.
	Allocs      uint64
	AllocsPerOT float64
}

// dhFloorM is the batch size at which the pooled tier's online phase is
// compared against the DH baseline — the paper-motivated "input-phase
// floor" the pool is built to remove.
const dhFloorM = 1024

// otSizes returns the batch sizes swept at the given scale. 40960 is
// Hamm's evaluator-input width, the paper-scale input phase.
func otSizes(s Scale) []int {
	if s == Paper {
		return []int{4096, 16384, 40960}
	}
	return []int{1024, 8192}
}

// runOTOnce executes one full extension over an in-memory pipe and
// returns wall time, wire bytes and allocation count.
func runOTOnce(protocol ot.Protocol, pairs []ot.Pair, choices ot.Bitset) (time.Duration, int64, uint64, error) {
	stats := &proto.Stats{}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	errc := make(chan error, 1)
	go func() { errc <- ot.Send(a, protocol, pairs) }()
	// Only the receiver end is instrumented: its sends plus its receives
	// count every wire byte exactly once.
	_, err := ot.ReceiveBitset(proto.Instrument(b, stats), protocol, choices)
	if err != nil {
		// Unblock the sender (it may be parked in a pipe Write) before
		// collecting its error.
		a.Close()
		b.Close()
		<-errc
		return 0, 0, 0, err
	}
	if err := <-errc; err != nil {
		return 0, 0, 0, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, stats.BytesSent.Load() + stats.BytesReceived.Load(), after.Mallocs - before.Mallocs, nil
}

// pairsAndChoices builds the message pairs and choice bits for one
// m-transfer batch.
func pairsAndChoices(m int) ([]ot.Pair, ot.Bitset) {
	src := label.NewSource(uint64(m))
	pairs := make([]ot.Pair, m)
	choices := ot.NewBitset(m)
	for i := range pairs {
		pairs[i] = ot.Pair{M0: src.Next(), M1: src.Next()}
		choices.Set(i, i%3 == 0)
	}
	return pairs, choices
}

// runPooledOnce builds a sender/receiver pool pair over an in-memory
// pipe (base OTs via DH), fills 2m correlations, warms the online path
// with one m-transfer derandomization, then measures a second one —
// the steady-state online phase. It returns the fill and online rows.
func runPooledOnce(m int) (fill, online OTRow, err error) {
	pairs, choices := pairsAndChoices(m)
	stats := &proto.Stats{}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ib := proto.Instrument(b, stats)

	errc := make(chan error, 1)
	go func() {
		sp, err := ot.NewSenderPool(a, ot.DH)
		if err == nil {
			err = sp.Fill(a, 2*m)
		}
		if err == nil {
			err = sp.SendDerand(a, pairs) // warm
		}
		if err == nil {
			err = sp.SendDerand(a, pairs) // measured
		}
		errc <- err
	}()
	fail := func(err error) (OTRow, OTRow, error) {
		a.Close()
		b.Close()
		<-errc
		return OTRow{}, OTRow{}, err
	}

	rp, err := ot.NewReceiverPool(ib, ot.DH)
	if err != nil {
		return fail(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := rp.Fill(ib, 2*m); err != nil {
		return fail(err)
	}
	fillDur := time.Since(start)
	runtime.ReadMemStats(&after)
	fill = OTRow{
		Protocol:  "pooled-fill",
		M:         2 * m,
		TotalNs:   fillDur.Nanoseconds(),
		NsPerOT:   float64(fillDur.Nanoseconds()) / float64(2*m),
		WireBytes: stats.BytesSent.Load() + stats.BytesReceived.Load(),
		Allocs:    after.Mallocs - before.Mallocs,
	}
	fill.AllocsPerOT = float64(fill.Allocs) / float64(2*m)

	out := make([]label.L, m)
	if err := rp.ReceiveDerand(ib, choices, out); err != nil { // warm
		return fail(err)
	}
	wireBefore := stats.BytesSent.Load() + stats.BytesReceived.Load()
	runtime.GC()
	runtime.ReadMemStats(&before)
	start = time.Now()
	if err := rp.ReceiveDerand(ib, choices, out); err != nil { // measured
		return fail(err)
	}
	onlineDur := time.Since(start)
	runtime.ReadMemStats(&after)
	if err := <-errc; err != nil {
		return OTRow{}, OTRow{}, err
	}
	for i := range out {
		want := pairs[i].M0
		if choices.Bit(i) == 1 {
			want = pairs[i].M1
		}
		if out[i] != want {
			return OTRow{}, OTRow{}, fmt.Errorf("pooled OT %d diverged from its pair", i)
		}
	}
	online = OTRow{
		Protocol:  "pooled-online",
		M:         m,
		TotalNs:   onlineDur.Nanoseconds(),
		NsPerOT:   float64(onlineDur.Nanoseconds()) / float64(m),
		WireBytes: stats.BytesSent.Load() + stats.BytesReceived.Load() - wireBefore,
		Allocs:    after.Mallocs - before.Mallocs,
	}
	online.AllocsPerOT = float64(online.Allocs) / float64(m)
	return fill, online, nil
}

// OTExtension measures IKNP batches across the scale's size sweep, with
// DH batches as the public-key baseline the extension replaces and the
// pooled tier's fill/online split showing what precomputation leaves on
// the critical path: one choice-correction XOR round. The pooled online
// phase at m=1024 is asserted >=10x faster than the DH floor at the
// same m — the latency the pool exists to remove.
func (e *Env) OTExtension() ([]OTRow, string, error) {
	var rows []OTRow
	run := func(name string, protocol ot.Protocol, m int) error {
		pairs, choices := pairsAndChoices(m)
		// Warm run so one-time pool/cipher setup is off the books, then
		// a measured run.
		if _, _, _, err := runOTOnce(protocol, pairs, choices); err != nil {
			return err
		}
		elapsed, wire, allocs, err := runOTOnce(protocol, pairs, choices)
		if err != nil {
			return err
		}
		rows = append(rows, OTRow{
			Protocol:    name,
			M:           m,
			TotalNs:     elapsed.Nanoseconds(),
			NsPerOT:     float64(elapsed.Nanoseconds()) / float64(m),
			WireBytes:   wire,
			Allocs:      allocs,
			AllocsPerOT: float64(allocs) / float64(m),
		})
		return nil
	}

	if err := run("DH", ot.DH, 128); err != nil {
		return nil, "", err
	}
	if err := run("DH", ot.DH, dhFloorM); err != nil {
		return nil, "", err
	}
	for _, m := range otSizes(e.Scale) {
		if err := run("IKNP", ot.IKNP, m); err != nil {
			return nil, "", err
		}
	}
	fill, online, err := runPooledOnce(dhFloorM)
	if err != nil {
		return nil, "", err
	}
	rows = append(rows, fill, online)
	var dhFloor *OTRow
	for i := range rows {
		if rows[i].Protocol == "DH" && rows[i].M == dhFloorM {
			dhFloor = &rows[i]
		}
	}
	if online.TotalNs*10 > dhFloor.TotalNs {
		return nil, "", fmt.Errorf("pooled online phase %v is not 10x under the DH floor %v at m=%d",
			time.Duration(online.TotalNs), time.Duration(dhFloor.TotalNs), dhFloorM)
	}

	header := []string{"Proto", "m", "total ms", "us/OT", "wire KiB", "allocs", "allocs/OT"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Protocol, fmt.Sprint(r.M),
			ms(time.Duration(r.TotalNs)),
			fmt.Sprintf("%.3f", r.NsPerOT/1e3),
			fmt.Sprintf("%.1f", float64(r.WireBytes)/1024),
			fmt.Sprint(r.Allocs),
			fmt.Sprintf("%.4f", r.AllocsPerOT),
		})
	}
	s := table(header, cells)
	s += fmt.Sprintf("\n(IKNP allocs are O(1) per 16384-OT chunk — allocs/OT falls toward zero as m\n"+
		"grows, while DH pays public-key work and allocations per transfer; pooled-fill\n"+
		"is the off-path precompute — base OTs paid once, IKNP extension banked — and\n"+
		"pooled-online is what remains on the critical path: one choice-correction XOR\n"+
		"round at ~32 wire bytes/OT, measured %.0fx under the DH floor at m=%d)\n",
		float64(dhFloor.TotalNs)/float64(online.TotalNs), dhFloorM)
	return rows, s, nil
}

// TransportRow reports one 2PC transport configuration.
type TransportRow struct {
	Name      string
	ANDGates  int
	WallNs    int64
	BytesSent int64
	BytesRecv int64
	// Allocs counts both parties' heap allocations for the whole run.
	Allocs         uint64
	AllocsPerTable float64
	MBps           float64
}

// Transport measures the table/label stream: a full
// in-process 2PC run per configuration over one shared plan, recording
// bytes each way, end-to-end throughput and allocations per garbled
// table.
func (e *Env) Transport() ([]TransportRow, string, error) {
	w := workloads.DotProduct(8, 16)
	if e.Scale == Paper {
		w = workloads.DotProduct(64, 32)
	}
	c := e.Circuit(w)
	and, _, _ := c.CountOps()
	plan, err := circuit.NewPlan(c)
	if err != nil {
		return nil, "", err
	}

	// Both hashers are allocation-free, so every row measures the
	// transport itself; the rekeyed row shows the paper's hasher, whose
	// per-gate key expansions cost CPU time, not allocations.
	fk := gc.NewFixedKeyHasher([16]byte{42})
	configs := []struct {
		name string
		opts proto.Options
	}{
		{"sequential", proto.Options{OT: ot.Insecure, Seed: 7, Hasher: fk}},
		{"plan-x4", proto.Options{OT: ot.Insecure, Seed: 7, Hasher: fk, Workers: 4}},
		{"iknp-seq", proto.Options{OT: ot.IKNP, Seed: 7, Hasher: fk}},
		{"rekeyed-seq", proto.Options{OT: ot.Insecure, Seed: 7}},
	}

	var rows []TransportRow
	for _, cfg := range configs {
		run := func() (*proto.Stats, time.Duration, error) {
			stats := &proto.Stats{}
			opts := cfg.opts
			opts.Stats = stats
			opts.Plan = plan
			d, err := time2PC(w, c, opts)
			return stats, d, err
		}
		if _, _, err := run(); err != nil { // warm pools and caches
			return nil, "", err
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		stats, wall, err := run()
		if err != nil {
			return nil, "", err
		}
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		rows = append(rows, TransportRow{
			Name:           cfg.name,
			ANDGates:       and,
			WallNs:         wall.Nanoseconds(),
			BytesSent:      stats.BytesSent.Load(),
			BytesRecv:      stats.BytesReceived.Load(),
			Allocs:         allocs,
			AllocsPerTable: float64(allocs) / float64(and),
			MBps:           stats.Throughput() / 1e6,
		})
	}

	header := []string{"Engine", "ANDs", "wall ms", "sent KiB", "recv KiB", "allocs", "allocs/table", "MB/s"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Name, fmt.Sprint(r.ANDGates),
			ms(time.Duration(r.WallNs)),
			fmt.Sprintf("%.1f", float64(r.BytesSent)/1024),
			fmt.Sprintf("%.1f", float64(r.BytesRecv)/1024),
			fmt.Sprint(r.Allocs),
			fmt.Sprintf("%.3f", r.AllocsPerTable),
			fmt.Sprintf("%.2f", r.MBps),
		})
	}
	s := table(header, cells)
	s += "\n(tables leave as the bytes of the garbler's arena through the session's sender,\nlabels through pooled slabs, and both hashers run allocation-free, so\nallocs/table is independent of circuit size on every row; the rekeyed row\nstill pays the paper's per-gate key expansions, as CPU time only — on the aesni tier overlapped with encryption)\n"
	return rows, s, nil
}
