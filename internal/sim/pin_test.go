package sim

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"haac/internal/compiler"
	"haac/internal/isa"
	"haac/internal/workloads"
)

// Byte-identity pin for the accelerator tool chain: a digest of every
// exported field of compiler.Compiled and sim.Result over a matrix of
// workloads, schedules, ESW settings, GE counts and hardware variants.
// A compiler or simulator change that is meant to be a pure speed-up
// must leave every digest below unchanged. Each Result digest is taken
// twice, with the replay's ready times at the width Simulate picks
// (int32 for every program here) and forced to int64, and both must
// match the one pinned value.

// digest folds fixed-width little-endian values into a 64-bit FNV-1a.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) i64(v int64) { d.u64(uint64(v)) }

func (d *digest) bool(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digest) u32s(vs []uint32) {
	d.u64(uint64(len(vs)))
	for _, v := range vs {
		d.u64(uint64(v))
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

func (d *digest) compiled(cp *compiler.Compiled) {
	p := &cp.Program
	d.u64(uint64(len(p.Instrs)))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		d.u64(uint64(in.Op))
		d.u64(uint64(in.A))
		d.u64(uint64(in.B))
		d.bool(in.Live)
	}
	// The input and instruction output addresses, the highest address
	// and each GE's stream (its count, then the indices GEOf maps to it)
	// are derived, and are hashed in full in the order the pinned
	// digests fix.
	d.u64(uint64(p.NumInputs))
	inputs := make([]uint32, p.NumInputs)
	for i := range inputs {
		inputs[i] = isa.Addr(i)
	}
	d.u32s(inputs)
	outs := make([]uint32, len(p.Instrs))
	for j := range outs {
		outs[j] = p.OutAddr(j)
	}
	d.u32s(outs)
	d.u32s(p.OutputAddrs)
	d.u64(uint64(p.MaxAddr()))

	d.u64(uint64(len(cp.GEOf)))
	for _, g := range cp.GEOf {
		d.u64(uint64(g))
	}
	d.u64(uint64(len(cp.InstrsPerGE)))
	for g, n := range cp.InstrsPerGE {
		d.u64(uint64(n))
		for j, gj := range cp.GEOf {
			if int(gj) == g {
				d.u64(uint64(j))
			}
		}
	}
	d.u64(uint64(len(cp.OoRW)))
	for _, q := range cp.OoRW {
		d.u32s(q)
	}
	d.u64(uint64(len(cp.TablesPerGE)))
	for _, n := range cp.TablesPerGE {
		d.u64(uint64(n))
	}
	d.u64(uint64(cp.Traffic.LiveWires))
	d.u64(uint64(cp.Traffic.OoRWires))
	d.u64(uint64(cp.Traffic.Outputs))
	d.bool(cp.SynthConstOne)
}

func (d *digest) result(r Result) {
	for _, v := range []int64{
		r.ComputeCycles, r.TrafficCycles, r.WireTrafficCycles, r.TotalCycles,
		r.DataStallCycles, r.BankConflicts,
		r.Events.ANDs, r.Events.XORs, r.Events.SWWReads, r.Events.SWWWrites,
		r.Events.OoRReads, r.Events.LiveWrites, r.Events.InputLoads,
		r.Events.TableCount, r.Events.InstrCount,
		r.Traffic.InstrBytes, r.Traffic.TableBytes, r.Traffic.OoRBytes,
		r.Traffic.LiveBytes, r.Traffic.InputBytes,
	} {
		d.i64(v)
	}
	d.u64(uint64(len(r.IssuedPerGE)))
	for _, n := range r.IssuedPerGE {
		d.i64(n)
	}
}

// pinSWW is small enough that every VIPSuiteSmall program slides the
// window and reads out of range.
const pinSWW = 256

var pinHW = []struct {
	name string
	set  func(*HW)
}{
	{"default", func(*HW) {}},
	{"no-forwarding", func(h *HW) { h.Forwarding = false }},
	{"oor-pull", func(h *HW) { h.OoRPull = true }},
	{"banks-3", func(h *HW) { h.BanksPerGE = 3 }}, // non-power-of-two bank count
}

// pinned holds, per VIPSuiteSmall program, the digests of every
// Compiled and every Result of the matrix in TestCompileSimulatePinned.
var pinned = map[string][2]string{
	"BubbSt":   {"bd2766843f41aa4f", "32124467a4e8ded4"},
	"DotProd":  {"1710c8dc1219a8dc", "8d619a98a946878b"},
	"Merse":    {"64f47365cebfd62c", "9834c4787958efdb"},
	"Triangle": {"1ede42109b4471df", "d91563db569cd4fc"},
	"Hamm":     {"a74deda1af239685", "ea38b120ae9b6527"},
	"MatMult":  {"fb548befa77925ba", "49dae9bd8de814e9"},
	"ReLU":     {"079f1f68ea94de51", "8ed4b07cb953e1da"},
	"GradDesc": {"7b97297f2852a0fd", "a0269c7b576cf656"},
}

func TestCompileSimulatePinned(t *testing.T) {
	eswModes := []struct{ esw, noSWW bool }{{true, false}, {false, false}, {false, true}}
	for _, w := range workloads.VIPSuiteSmall() {
		c := w.Build()
		dc, dr := newDigest(), [2]*digest{newDigest(), newDigest()}
		oor := 0
		for _, mode := range []compiler.ReorderMode{compiler.Baseline, compiler.FullReorder, compiler.SegmentReorder} {
			for _, em := range eswModes {
				for _, nge := range []int{1, 4, 16} {
					for _, garbler := range []bool{false, true} {
						cp, err := compiler.Compile(c, compiler.Config{
							Reorder: mode, ESW: em.esw, NoSWW: em.noSWW,
							SWWWires: pinSWW, NumGEs: nge, GarblerPipeline: garbler,
						})
						if err != nil {
							t.Fatalf("%s: %v", w.Name, err)
						}
						dc.compiled(cp)
						if !em.noSWW {
							oor += cp.Traffic.OoRWires
						}
						hws := pinHW
						if garbler {
							hws = pinHW[:1] // Garbler programs: the default hardware alone
						}
						for _, v := range hws {
							hw := DefaultHW()
							v.set(&hw)
							for i, wide := range []bool{false, true} {
								r, err := simulate(cp, hw, wide)
								if err != nil {
									t.Fatalf("%s/%v/%s: %v", w.Name, mode, v.name, err)
								}
								dr[i].result(r)
							}
						}
					}
				}
			}
		}
		if oor == 0 {
			t.Errorf("%s: no out-of-range reads at a %d-wire SWW; the pin misses the OoRW path", w.Name, pinSWW)
		}
		for i, width := range []string{"narrow", "wide"} {
			got := [2]string{dc.sum(), dr[i].sum()}
			if got != pinned[w.Name] {
				t.Errorf("%s, %s ready times: digests (Compiled, Result) = %q, pinned %q", w.Name, width, got, pinned[w.Name])
			}
		}
	}
}

// pinnedTraced and pinnedCoupled are the digests of one SimulateTraced
// and one SimulateCoupled run.
const (
	pinnedTraced  = "f7b66fc3c7b31cd6"
	pinnedCoupled = "fceb03f14ccd73bf"
)

func TestTracedAndCoupledPinned(t *testing.T) {
	hw := DefaultHW()
	cp := compileFor(t, workloads.MatMult(3, 16), compiler.Config{
		Reorder: compiler.FullReorder, ESW: true, SWWWires: pinSWW, NumGEs: 4,
	})

	for _, wide := range []bool{false, true} {
		res, tr, err := simulateTraced(cp, hw, 37, wide)
		if err != nil {
			t.Fatal(err)
		}
		d := newDigest()
		d.result(res)
		d.i64(tr.CyclesPerBucket)
		for _, row := range tr.Occupancy {
			d.u64(uint64(len(row)))
			for _, v := range row {
				d.u64(uint64(math.Float32bits(v)))
			}
		}
		if got := d.sum(); got != pinnedTraced {
			t.Errorf("SimulateTraced digest %s (wide %v), pinned %s", got, wide, pinnedTraced)
		}
	}

	cr, err := SimulateCoupled(cp, hw, DefaultQueues())
	if err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	for _, v := range []int64{cr.TotalCycles, cr.InstrStalls, cr.TableStalls, cr.OoRWStalls,
		cr.WriteStalls, cr.DataStalls, cr.DecoupledCycles} {
		d.i64(v)
	}
	if got := d.sum(); got != pinnedCoupled {
		t.Errorf("SimulateCoupled digest %s, pinned %s", got, pinnedCoupled)
	}
}

// pinnedWide holds, per VIPSuiteSmall program, the digests of the
// Compiled and Result matrix of TestCompileSimulateWidePinned: GE
// counts past one and four 64-bit words, where a bitset over the GEs
// crosses a word boundary. Baseline rides along for its stalls.
var pinnedWide = map[string][2]string{
	"BubbSt":   {"c3510a11fee91735", "2b0504204d65e174"},
	"DotProd":  {"351eb076cc61c5ef", "65433029feda887e"},
	"Merse":    {"4f804951af619d3c", "9847d9f979435174"},
	"Triangle": {"ada900acdc703c7a", "f99aaaf5eeb42abd"},
	"Hamm":     {"3a0c74c510042acb", "8424bc0e33fae21e"},
	"MatMult":  {"a30c20b0d51819d6", "ff59dc731785ee59"},
	"ReLU":     {"d22956285c440f0a", "f47585fca8db775d"},
	"GradDesc": {"d611f18a73b3cfef", "0a183768ca424a11"},
}

func TestCompileSimulateWidePinned(t *testing.T) {
	for _, w := range workloads.VIPSuiteSmall() {
		c := w.Build()
		dc, dr := newDigest(), [2]*digest{newDigest(), newDigest()}
		for _, mode := range []compiler.ReorderMode{compiler.Baseline, compiler.FullReorder, compiler.SegmentReorder} {
			for _, nge := range []int{65, compiler.MaxGEs} {
				cp, err := compiler.Compile(c, compiler.Config{
					Reorder: mode, ESW: true, SWWWires: pinSWW, NumGEs: nge,
				})
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				dc.compiled(cp)
				hw := DefaultHW()
				for i, wide := range []bool{false, true} {
					r, err := simulate(cp, hw, wide)
					if err != nil {
						t.Fatalf("%s/%v/%d: %v", w.Name, mode, nge, err)
					}
					dr[i].result(r)
				}
			}
		}
		for i, width := range []string{"narrow", "wide"} {
			got := [2]string{dc.sum(), dr[i].sum()}
			if got != pinnedWide[w.Name] {
				t.Errorf("%s, %s ready times: digests (Compiled, Result) = %q, pinned %q", w.Name, width, got, pinnedWide[w.Name])
			}
		}
	}
}

// pinnedOneSlot is the digest of TestOneSlotBanksPinned's Results.
const pinnedOneSlot = "32ca16f0818e1f51"

// TestOneSlotBanksPinned runs banks with one access slot per GE cycle
// (SWW clock = GE clock), the only setting where a burst of two reads
// leaves a bank over its slots and a later operand's check differs
// from a fresh bank's; the matrix above always has two slots.
func TestOneSlotBanksPinned(t *testing.T) {
	dr := [2]*digest{newDigest(), newDigest()}
	for _, w := range workloads.VIPSuiteSmall() {
		c := w.Build()
		for _, mode := range []compiler.ReorderMode{compiler.Baseline, compiler.FullReorder} {
			for _, nge := range []int{1, 4, 16} {
				cp, err := compiler.Compile(c, compiler.Config{
					Reorder: mode, ESW: true, SWWWires: pinSWW, NumGEs: nge,
				})
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				hw := DefaultHW()
				hw.SWWClock = hw.GEClock
				for _, banks := range []int{1, 4} {
					hw.BanksPerGE = banks
					for i, wide := range []bool{false, true} {
						r, err := simulate(cp, hw, wide)
						if err != nil {
							t.Fatalf("%s/%v/%d: %v", w.Name, mode, nge, err)
						}
						dr[i].result(r)
					}
				}
			}
		}
	}
	for i, width := range []string{"narrow", "wide"} {
		if got := dr[i].sum(); got != pinnedOneSlot {
			t.Errorf("%s ready times: digest %s, pinned %s", width, got, pinnedOneSlot)
		}
	}
}

// pinnedReuse holds, per VIPSuiteSmall program, the exact AnalyzeReuse
// statistics at pinSWW and at the default SWW (DefaultConfig otherwise),
// over the windows haac-sim -reuse reports: a quarter, one and four
// times the SWW. The digests above do not read the reuse analysis.
var pinnedReuse = map[string][2]string{
	"BubbSt": {
		"reads 10752 median 85 p90 634 p99 4231 max 5312 covered 0.33686755952380953 0.6016555059523809 0.8704427083333334",
		"reads 10752 median 85 p90 634 p99 4231 max 5312 covered 1 1 1",
	},
	"DotProd": {
		"reads 12134 median 123 p90 2427 p99 4744 max 5010 covered 0.03617933080599967 0.5295862864677765 0.725317290258777",
		"reads 12134 median 123 p90 2427 p99 4744 max 5010 covered 1 1 1",
	},
	"Merse": {
		"reads 16356 median 116 p90 4007 p99 7617 max 8129 covered 0.03613352898019075 0.6612252384446075 0.7965884079236977",
		"reads 16356 median 116 p90 4007 p99 7617 max 8129 covered 1 1 1",
	},
	"Triangle": {
		"reads 2082 median 85 p90 172 p99 242 max 259 covered 0.18683957732949089 0.7713736791546589 1",
		"reads 2082 median 85 p90 172 p99 242 max 259 covered 1 1 1",
	},
	"Hamm": {
		"reads 1964 median 80 p90 171 p99 261 max 277 covered 0.1960285132382892 0.7627291242362525 1",
		"reads 1964 median 80 p90 171 p99 261 max 277 covered 1 1 1",
	},
	"MatMult": {
		"reads 40086 median 399 p90 8157 p99 17037 max 19525 covered 0.0031681883949508556 0.04627550765853415 0.5701990719952102",
		"reads 40086 median 399 p90 8157 p99 17037 max 19525 covered 0.9847328244274809 1 1",
	},
	"ReLU": {
		"reads 512 median 126 p90 226 p99 250 max 256 covered 0.126953125 0.509765625 1",
		"reads 512 median 126 p90 226 p99 250 max 256 covered 1 1 1",
	},
	"GradDesc": {
		"reads 253212 median 88 p90 5587 p99 88187 max 126606 covered 0.2818152378244317 0.652686286589893 0.7864990600761417",
		"reads 253212 median 88 p90 5587 p99 88187 max 126606 covered 0.9475024880337425 0.9719444576086441 1",
	},
}

func TestReuseStatsPinned(t *testing.T) {
	for _, w := range workloads.VIPSuiteSmall() {
		c := w.Build()
		var got [2]string
		for i, sww := range []int{pinSWW, compiler.DefaultConfig().SWWWires} {
			cfg := compiler.DefaultConfig()
			cfg.SWWWires = sww
			cp, err := compiler.Compile(c, cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			windows := []int{sww / 4, sww, 4 * sww}
			st := cp.AnalyzeReuse(windows)
			got[i] = fmt.Sprintf("reads %d median %d p90 %d p99 %d max %d covered %v %v %v",
				st.Reads, st.Median, st.P90, st.P99, st.Max,
				st.CoveredBy[windows[0]], st.CoveredBy[windows[1]], st.CoveredBy[windows[2]])
		}
		if got != pinnedReuse[w.Name] {
			t.Errorf("%s: reuse stats (pinSWW, default SWW) =\n\t%q,\npinned\n\t%q", w.Name, got, pinnedReuse[w.Name])
		}
	}
}
