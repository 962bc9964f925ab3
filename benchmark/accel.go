package main

import (
	"fmt"
	"runtime"
	"time"

	"haac/internal/circuit"
	"haac/internal/compiler"
	"haac/internal/energy"
	"haac/internal/sim"
	"haac/internal/workloads"
)

// progStats is one timed Compile + Simulate + Energy of one program.
// compileS and simS are host seconds; everything in res is simulated.
type progStats struct {
	name     string
	compileS float64
	simS     float64
	instrs   int
	traffic  compiler.Traffic
	res      sim.Result
	energyUJ float64
}

// compileSim runs the accelerator tool chain on one circuit at the
// paper's headline design point, timing each call from outside. With
// gcFirst the collector runs before each timed call, so one program's
// garbage is not billed to the next; repetitions of one small program
// leave it off, because a collection forced every few milliseconds
// makes the timing depend on the collector's restart, not on the call.
func compileSim(name string, c *circuit.Circuit, gcFirst bool, tr *tracer, op, parent int) (progStats, *compiler.Compiled, error) {
	ps := progStats{name: name}
	if gcFirst {
		runtime.GC()
	}
	id := tr.begin("Compile", "compiler", op, parent)
	t0 := time.Now()
	cp, err := compiler.Compile(c, compiler.DefaultConfig())
	ps.compileS = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return ps, nil, fmt.Errorf("compile %s: %w", name, err)
	}
	if gcFirst {
		runtime.GC()
	}
	id = tr.begin("Simulate", "sim", op, parent)
	t0 = time.Now()
	res, err := sim.Simulate(cp, sim.DefaultHW())
	ps.simS = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return ps, nil, fmt.Errorf("simulate %s: %w", name, err)
	}
	ps.instrs = len(cp.Program.Instrs)
	ps.traffic = cp.Traffic
	ps.res = res
	ps.energyUJ = energy.Energy(res).Total() * 1e6
	return ps, cp, nil
}

// accelAgg summarises passes over a fixed list of programs. Each
// program's host times are its medians over the passes, so a slow
// phase of the host costs a program one sample, not the pass; the sums
// of those medians are the aggregate times. Simulated statistics are
// taken from the first pass (every pass is checked to repeat them).
type accelAgg struct {
	compileS, simS, compileSimS float64
	cyclesGeomean               float64
	offChipBytes                float64   // modelled off-chip bytes, mean per program
	opMS                        []float64 // every timed op's Compile+Simulate host ms
	programMS                   []float64 // per program: median over the passes
	first                       []progStats
}

func aggregate(passes [][]progStats) accelAgg {
	a := accelAgg{first: passes[0]}
	var cycles []float64
	for i, p := range a.first {
		var compile, simulate, both []float64
		for _, pass := range passes {
			compile, simulate = append(compile, pass[i].compileS), append(simulate, pass[i].simS)
			both = append(both, pass[i].compileS+pass[i].simS)
			a.opMS = append(a.opMS, (pass[i].compileS+pass[i].simS)*1e3)
		}
		a.compileS += median(compile)
		a.simS += median(simulate)
		a.compileSimS += median(both)
		a.programMS = append(a.programMS, median(both)*1e3)
		cycles = append(cycles, float64(p.res.TotalCycles))
		a.offChipBytes += float64(p.res.Traffic.TotalBytes()) / float64(len(a.first))
	}
	a.cyclesGeomean = geomean(cycles)
	return a
}

// setLayer fills the compiler/sim/energy per-layer metrics: sums over
// the programs, except utilization (mean) and the simulator's speed.
func (a accelAgg) setLayer(r *result) {
	var instrs, oor, live, total, compute, traffic, stall, bank, util, uj float64
	for _, p := range a.first {
		instrs += float64(p.instrs)
		oor += float64(p.traffic.OoRWires)
		live += float64(p.traffic.LiveWires)
		total += float64(p.res.TotalCycles)
		compute += float64(p.res.ComputeCycles)
		traffic += float64(p.res.TrafficCycles)
		stall += float64(p.res.DataStallCycles)
		bank += float64(p.res.BankConflicts)
		util += p.res.Utilization() / float64(len(a.first))
		uj += p.energyUJ
	}
	r.set("compiler.compile_s", a.compileS)
	r.set("compiler.instrs", instrs)
	r.set("compiler.oor_wires", oor)
	r.set("compiler.live_wires", live)
	r.set("sim.host_s", a.simS)
	r.set("sim.total_cycles", total)
	r.set("sim.compute_cycles", compute)
	r.set("sim.traffic_cycles", traffic)
	r.set("sim.data_stall_cycles", stall)
	r.set("sim.bank_conflicts", bank)
	r.set("sim.utilization", util)
	r.set("sim.instrs_per_host_s", ratio(instrs, a.simS))
	r.set("energy.total_uj", uj)
}

// programTable renders the per-program detail behind the aggregates.
func (a accelAgg) programTable() []string {
	lines := []string{fmt.Sprintf("    %-10s %10s %10s %12s %10s %10s %14s %14s %14s %12s %10s %6s %12s",
		"program", "compile_s", "sim_s", "instrs", "oor_wires", "live_wires", "total_cycles", "compute_cyc", "traffic_cyc", "data_stalls", "bank_conf", "util", "energy_uj")}
	for _, p := range a.first {
		lines = append(lines, fmt.Sprintf("    %-10s %10.4f %10.4f %12d %10d %10d %14d %14d %14d %12d %10d %6.3f %12.2f",
			p.name, p.compileS, p.simS, p.instrs, p.traffic.OoRWires, p.traffic.LiveWires, p.res.TotalCycles, p.res.ComputeCycles,
			p.res.TrafficCycles, p.res.DataStallCycles, p.res.BankConflicts, p.res.Utilization(), p.energyUJ))
	}
	return lines
}

// accelView is the accelerator's view of a serve workload: the served
// circuit compiled and simulated. Its repetitions are sampled in
// chunks spread over the run (before the first set-up and after each
// tear-down, never while servers are up), so that one phase of the
// host's CPU speed cannot move the median.
type accelView struct {
	name   string
	c      *circuit.Circuit
	cfg    *config
	passes [][]progStats
}

func (v *accelView) sample() error {
	parent := v.cfg.tr.begin("accel-view", "benchmark", -1, -1)
	defer v.cfg.tr.end(parent)
	start := time.Now()
	for i := 0; i < v.cfg.sc.viewReps || time.Since(start) < v.cfg.sc.viewChunk; i++ {
		ps, _, err := compileSim(v.name, v.c, false, v.cfg.tr, len(v.passes), parent)
		if err != nil {
			return err
		}
		if len(v.passes) > 0 && ps.res.TotalCycles != v.passes[0][0].res.TotalCycles {
			return fmt.Errorf("%s: simulated cycles changed between repetitions: %d then %d", v.name, v.passes[0][0].res.TotalCycles, ps.res.TotalCycles)
		}
		v.passes = append(v.passes, []progStats{ps})
	}
	return nil
}

// vipEnv is one set-up of accel.vip.
type vipEnv struct {
	suite    []workloads.Workload
	circuits []*circuit.Circuit
	verified []bool      // Compiled.Execute matched Workload.Reference
	warm     []progStats // the untimed warm pass; timed passes must repeat its cycles
}

// setupVIP builds the circuits and runs the warm pass; the warm pass's
// compiled program is also executed functionally against the native
// reference, once per program.
func setupVIP(suite []workloads.Workload, cfg *config) (*vipEnv, error) {
	tr := cfg.tr
	parent := tr.begin("setup", "benchmark", -1, -1)
	defer tr.end(parent)
	env := &vipEnv{suite: suite}
	for i, w := range suite {
		id := tr.begin("Build", "workloads", i, parent)
		c := w.Build()
		tr.end(id)
		env.circuits = append(env.circuits, c)
	}
	for i, w := range suite {
		c := env.circuits[i]
		g, e := w.Inputs(cfg.seed)
		want := w.Reference(g, e)
		if cfg.corruptOracle {
			want[0] = !want[0]
		}
		ps, cp, err := compileSim(w.Name, c, true, tr, i, parent)
		if err != nil {
			return nil, err
		}
		in, err := cp.InputBits(c, g, e)
		if err != nil {
			return nil, err
		}
		id := tr.begin("Execute", "compiler", i, parent)
		got, err := cp.Execute(in)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("execute %s: %w", w.Name, err)
		}
		env.verified = append(env.verified, equalBits(got, want))
		env.warm = append(env.warm, ps)
	}
	return env, nil
}

func equalBits(got, want []bool) bool {
	if len(got) < len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// pass runs one timed pass; an op is verified when it ran without
// error, repeated the warm pass's simulated cycles exactly, and its
// program passed the functional check in set-up.
func (env *vipEnv) pass(tr *tracer, r *result) ([]progStats, error) {
	var out []progStats
	for i, w := range env.suite {
		op := tr.begin("op", "benchmark", i, -1)
		ps, _, err := compileSim(w.Name, env.circuits[i], true, tr, i, op)
		tr.end(op)
		if err != nil {
			return nil, err
		}
		r.attempted++
		if !env.verified[i] || ps.res.TotalCycles != env.warm[i].res.TotalCycles {
			r.failed++
		}
		out = append(out, ps)
	}
	return out, nil
}

func runAccelVIP(cfg *config) (*result, error) {
	r := newResult("accel.vip")
	suite := workloads.VIPSuite()
	if cfg.sc.smoke {
		suite = workloads.VIPSuiteSmall()
	}
	setups := cfg.sc.setups
	if cfg.trace {
		setups = 1
	}
	var env *vipEnv
	var setupS []float64
	for i := 0; i < setups; i++ {
		env = nil // let the previous set-up's circuits go before building again
		t0 := time.Now()
		var err error
		if env, err = setupVIP(suite, cfg); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var untraced, traced [][]progStats
	if cfg.trace {
		// One pass each way: the difference is the tracing overhead.
		plain, err := env.pass(nil, r)
		if err != nil {
			return nil, err
		}
		spanned, err := env.pass(cfg.tr, r)
		if err != nil {
			return nil, err
		}
		untraced, traced = [][]progStats{plain}, [][]progStats{spanned}
	} else {
		start := time.Now()
		for p := 0; p < cfg.sc.minPasses || time.Since(start).Seconds() < cfg.seconds; p++ {
			pass, err := env.pass(nil, r)
			if err != nil {
				return nil, err
			}
			untraced = append(untraced, pass)
		}
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	a := aggregate(untraced)
	r.detail = append(r.detail, fmt.Sprintf("  %d programs x %d timed passes; per program (first timed pass; simulated columns repeat exactly):", len(suite), len(untraced)))
	r.detail = append(r.detail, a.programTable()...)
	r.detail = append(r.detail, fmt.Sprintf("  per program, median Compile+Simulate host ms over the passes: %.4g", a.programMS))
	if cfg.trace {
		a.setLayer(r)
		r.set("allocs_per_run", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(r.attempted)))
		r.set("heap_peak_mb", float64(ms1.HeapSys)/1e6)
		r.set("run_ms_p90", percentile(a.opMS, 0.9))
		r.set("trace_overhead_pct", 100*ratio(aggregate(traced).compileSimS-a.compileSimS, a.compileSimS))
		return r, nil
	}
	r.set("runs_per_s", ratio(float64(len(suite)), a.compileSimS))
	r.set("run_ms_p50", median(a.programMS))
	r.set("wire_bytes_per_run", a.offChipBytes)
	r.set("setup_s", median(setupS))
	r.set("sim_cycles_geomean", a.cyclesGeomean)
	r.set("compile_sim_s", a.compileSimS)
	r.detail = append(r.detail,
		fmt.Sprintf("  allocs_per_run %.0f count   heap_peak_mb %.1f MB   run_ms_p90 %.3f ms (%d ops)",
			ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(r.attempted)), float64(ms1.HeapSys)/1e6, percentile(a.opMS, 0.9), len(a.opMS)))
	return r, nil
}
