// Package bench regenerates every table and figure of the paper's
// evaluation (§6). Each experiment returns structured rows plus a
// formatted text rendering; cmd/haacbench drives them from the command
// line and this package's tests check their shapes. Host timing of the
// 2PC stack — sessions, OT, transport, the fleet proxy — is measured by
// the benchmark/ program, not here.
//
// Experiments run at one of two scales: Small (reduced workloads, for
// CI and tests) and Paper (the §5 input sizes). Shapes —
// who wins, scaling trends, crossovers — are expected to match the
// paper at either scale; absolute numbers are recorded against the
// paper's in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"haac/internal/baseline"
	"haac/internal/circuit"
	"haac/internal/compiler"
	"haac/internal/gc"
	"haac/internal/sim"
	"haac/internal/workloads"
)

// Scale selects workload sizes.
type Scale int

const (
	// Small uses reduced workloads (seconds to run).
	Small Scale = iota
	// Paper uses the §5 evaluation sizes (minutes to run).
	Paper
)

// ParseScale converts "small"/"paper".
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "small":
		return Small, nil
	case "paper":
		return Paper, nil
	}
	return 0, fmt.Errorf("bench: unknown scale %q (want small or paper)", s)
}

func (s Scale) String() string {
	if s == Paper {
		return "paper"
	}
	return "small"
}

// Suite returns the VIP workloads for the scale.
func (s Scale) Suite() []workloads.Workload {
	if s == Paper {
		return workloads.VIPSuite()
	}
	return workloads.VIPSuiteSmall()
}

// Env carries shared measurement state across experiments: the host CPU
// garbling model and a single-entry circuit cache (paper-scale circuits
// are hundreds of MB, so only the most recent is retained).
type Env struct {
	Scale Scale

	cpuOnce sync.Once
	cpuEval baseline.CPUModel
	cpuGarb baseline.CPUModel

	cacheName string
	cacheCirc *circuit.Circuit
}

// NewEnv creates an experiment environment.
func NewEnv(s Scale) *Env { return &Env{Scale: s} }

// CPU returns the measured host software-GC cost models (evaluator and
// garbler), measured once with the paper's re-keyed hash.
func (e *Env) CPU() (eval, garb baseline.CPUModel) {
	e.cpuOnce.Do(func() {
		e.cpuEval = baseline.MeasureCPU(gc.RekeyedHasher{}, true)
		e.cpuGarb = baseline.MeasureCPU(gc.RekeyedHasher{}, false)
	})
	return e.cpuEval, e.cpuGarb
}

// Circuit builds (or returns the cached) circuit for a workload.
func (e *Env) Circuit(w workloads.Workload) *circuit.Circuit {
	if e.cacheName == w.Name && e.cacheCirc != nil {
		return e.cacheCirc
	}
	c := w.Build()
	e.cacheName, e.cacheCirc = w.Name, c
	return c
}

// swwWires converts an SWW size in MB to wires (16 B per wire).
func swwWires(mb float64) int { return int(mb * 1024 * 1024 / 16) }

// cfg builds a compiler config.
func cfg(mode compiler.ReorderMode, esw bool, swwMB float64, ges int, garbler bool) compiler.Config {
	return compiler.Config{
		Reorder:         mode,
		ESW:             esw,
		SWWWires:        swwWires(swwMB),
		NumGEs:          ges,
		GarblerPipeline: garbler,
	}
}

// hwFor is the default hardware with the given DRAM.
func hwFor(dram sim.DRAM) sim.HW {
	h := sim.DefaultHW()
	h.DRAM = dram
	return h
}

// runSim compiles and simulates in one step.
func runSim(c *circuit.Circuit, cc compiler.Config, dram sim.DRAM) (sim.Result, *compiler.Compiled, error) {
	cp, err := compiler.Compile(c, cc)
	if err != nil {
		return sim.Result{}, nil, err
	}
	r, err := sim.Simulate(cp, hwFor(dram))
	if err != nil {
		return sim.Result{}, nil, err
	}
	return r, cp, nil
}

// geomean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	logsum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		logsum += math.Log(v)
	}
	return math.Exp(logsum / float64(len(vs)))
}

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	return b.String()
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6) }

// us formats a duration in microseconds.
func us(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e3) }
