// Command haac-sim compiles a workload (or Bristol netlist) and runs it
// on the cycle-level HAAC model, reporting timing, traffic, stalls,
// energy and the speedup over a software CPU baseline measured on this
// host.
//
// Usage:
//
//	haac-sim -workload MatMult [-ges 16] [-sww-mb 2] [-dram hbm2] [-reorder full]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"haac/internal/baseline"
	"haac/internal/circuit"
	"haac/internal/compiler"
	"haac/internal/energy"
	"haac/internal/gc"
	"haac/internal/sim"
	"haac/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, simulates and
// reports, and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("haac-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "Bristol netlist file")
	workload := fs.String("workload", "", "built-in workload name")
	small := fs.Bool("small", false, "use reduced workload sizes")
	reorder := fs.String("reorder", "full", "baseline, full, or seg")
	esw := fs.Bool("esw", true, "eliminate spent wires")
	swwMB := fs.Float64("sww-mb", 2, "SWW size in MB")
	ges := fs.Int("ges", 16, "gate engines")
	dram := fs.String("dram", "ddr4", "ddr4 or hbm2")
	garbler := fs.Bool("garbler", false, "Garbler pipeline instead of Evaluator")
	noFwd := fs.Bool("no-forwarding", false, "disable the wire forwarding network (ablation)")
	trace := fs.Int("trace", 0, "print a GE-occupancy heatmap with N time buckets")
	reuse := fs.Bool("reuse", false, "print wire reuse-distance statistics")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	c, name, err := loadCircuit(*in, *workload, *small)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	mode, err := compiler.ParseReorderMode(*reorder)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	cfg := compiler.Config{
		Reorder: mode, ESW: *esw,
		SWWWires: int(*swwMB * 1024 * 1024 / 16),
		NumGEs:   *ges, GarblerPipeline: *garbler,
	}
	cp, err := compiler.Compile(c, cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	hw := sim.DefaultHW()
	hw.Forwarding = !*noFwd
	switch strings.ToLower(*dram) {
	case "ddr4":
		hw.DRAM = sim.DDR4
	case "hbm2":
		hw.DRAM = sim.HBM2
	default:
		fmt.Fprintf(stderr, "unknown DRAM %q\n", *dram)
		return 2
	}

	r, err := sim.Simulate(cp, hw)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	s := c.ComputeStats()
	fmt.Fprintf(stdout, "workload     %s: %d gates (%.1f%% AND)\n", name, s.Gates, s.ANDPercent)
	fmt.Fprintf(stdout, "config       %d GEs, %.3g MB SWW, %s, %s pipeline, forwarding=%v, %s reorder, ESW=%v\n",
		cfg.NumGEs, *swwMB, hw.DRAM.Name, party(cfg.GarblerPipeline), hw.Forwarding, mode, *esw)
	fmt.Fprintf(stdout, "time         %v  (%d cycles @ %.0f MHz)\n", r.Time(), r.TotalCycles, hw.GEClock/1e6)
	fmt.Fprintf(stdout, "  compute    %v  (%d cycles; %d data-stall checks, %d bank conflicts)\n",
		r.ComputeTime(), r.ComputeCycles, r.DataStallCycles, r.BankConflicts)
	fmt.Fprintf(stdout, "  traffic    %d cycles total-stream, %d cycles wire-stream\n", r.TrafficCycles, r.WireTrafficCycles)
	tr := r.Traffic
	fmt.Fprintf(stdout, "traffic      instr %.2f MB, tables %.2f MB, OoR %.2f MB, live %.2f MB, inputs %.2f MB\n",
		mb(tr.InstrBytes), mb(tr.TableBytes), mb(tr.OoRBytes), mb(tr.LiveBytes), mb(tr.InputBytes))

	fmt.Fprintf(stdout, "GEs          %.0f%% utilized (compute phase), load imbalance %.2f\n",
		100*r.Utilization(), r.LoadImbalance())

	b := energy.Energy(r)
	fmt.Fprintf(stdout, "energy       %.3g J (avg %.2f W); half-gate %.0f%%, sram %.0f%%, dram %.0f%%\n",
		b.Total(), energy.AveragePower(r),
		100*b.Normalized().HalfGate, 100*b.Normalized().SRAM, 100*b.Normalized().DRAMPHY)
	fmt.Fprintf(stdout, "area         %.2f mm^2 (HAAC IP, 16 nm)\n", energy.AreaFor(cfg.NumGEs, cfg.SWWWires*16).Total())

	cpu := baseline.MeasureCPU(gc.RekeyedHasher{}, !cfg.GarblerPipeline)
	cpuT := cpu.GCTime(s)
	fmt.Fprintf(stdout, "CPU GC       %v on this host (%.0f ns/AND, %.1f ns/XOR) -> speedup %.0fx\n",
		cpuT, cpu.NsPerAND, cpu.NsPerXOR, cpuT.Seconds()/r.Time().Seconds())

	if *reuse {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, cp.AnalyzeReuse([]int{cfg.SWWWires / 4, cfg.SWWWires, 4 * cfg.SWWWires}))
	}
	if *trace > 0 {
		_, tr, err := sim.SimulateTraced(cp, hw, *trace)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, tr.Render())
	}
	return 0
}

func mb(b int64) float64 { return float64(b) / (1024 * 1024) }

func party(garbler bool) string {
	if garbler {
		return "Garbler"
	}
	return "Evaluator"
}

func loadCircuit(in, workload string, small bool) (*circuit.Circuit, string, error) {
	switch {
	case in != "" && workload != "":
		return nil, "", fmt.Errorf("use either -in or -workload, not both")
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		c, err := circuit.ReadBristol(f)
		return c, in, err
	case workload != "":
		w, err := workloads.Find(workload, small)
		if err != nil {
			return nil, "", err
		}
		return w.Build(), w.Name, nil
	}
	return nil, "", fmt.Errorf("one of -in or -workload is required")
}
