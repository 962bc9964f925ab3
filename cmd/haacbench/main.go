// Command haacbench regenerates every table and figure of the HAAC
// paper's evaluation (§6). By default it runs everything at the paper's
// workload sizes; use -scale small for a quick pass and the per-
// experiment flags to select subsets. Host timing of the 2PC stack
// (sessions, OT, transport, fleet) is not here: `go run ./benchmark`
// measures it.
//
// Usage:
//
//	haacbench [-scale paper|small] [-experiments table2,fig6,...]
//
// Experiments: table1 table2 table3 table4 table5 fig6 fig7 fig8 fig9
// fig10 garbler rekey memory ablation multicore segsweep coupling (or
// "all"). The list is defined once in experiments();
// main_test.go checks this comment, the flag help and the section
// headings of EXPERIMENTS.md against it, so they cannot drift apart.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"haac/internal/bench"
)

// experiment is one selectable evaluation artifact.
type experiment struct {
	name  string
	title string
	run   func(env *bench.Env) (string, error)
}

// experiments returns every artifact in presentation order — the single
// source of truth for the doc comment, the flag help and the tests.
func experiments() []experiment {
	return []experiment{
		{"table1", "PPC technique comparison", func(*bench.Env) (string, error) {
			return bench.Table1(), nil
		}},
		{"table2", "benchmark characteristics", func(env *bench.Env) (string, error) {
			_, s, err := env.Table2()
			return s, err
		}},
		{"fig6", "compiler optimization speedups over CPU", func(env *bench.Env) (string, error) {
			_, s, err := env.Fig6()
			return s, err
		}},
		{"table3", "wire traffic: segment vs full reorder", func(env *bench.Env) (string, error) {
			_, s, err := env.Table3()
			return s, err
		}},
		{"fig7", "compute vs wire traffic across orderings and SWW sizes", func(env *bench.Env) (string, error) {
			_, s, err := env.Fig7()
			return s, err
		}},
		{"fig8", "GE scaling with DDR4 and HBM2", func(env *bench.Env) (string, error) {
			_, s, err := env.Fig8()
			return s, err
		}},
		{"table4", "area and power breakdown", func(env *bench.Env) (string, error) {
			return env.Table4()
		}},
		{"fig9", "energy breakdown and efficiency vs CPU", func(env *bench.Env) (string, error) {
			_, s, err := env.Fig9()
			return s, err
		}},
		{"fig10", "slowdown vs plaintext", func(env *bench.Env) (string, error) {
			_, s, err := env.Fig10()
			return s, err
		}},
		{"table5", "comparison to prior accelerators", func(env *bench.Env) (string, error) {
			_, s, err := env.Table5()
			return s, err
		}},
		{"garbler", "Garbler vs Evaluator gap", func(env *bench.Env) (string, error) {
			_, s, err := env.GarblerVsEvaluator()
			return s, err
		}},
		{"rekey", "re-keying overhead", func(*bench.Env) (string, error) {
			_, _, s := bench.RekeyingOverhead()
			return s, nil
		}},
		{"memory", "precompiled plans: peak-live renaming vs dense wire arrays", func(env *bench.Env) (string, error) {
			_, s, err := env.Memory()
			return s, err
		}},
		{"ablation", "design-choice ablations (forwarding, push OoR, SWW, banking)", func(env *bench.Env) (string, error) {
			_, s, err := env.Ablations()
			return s, err
		}},
		{"multicore", "future work: multiple HAAC cores (§6.5)", func(env *bench.Env) (string, error) {
			_, s, err := env.MultiCore()
			return s, err
		}},
		{"segsweep", "segment-size study (§4.2.1)", func(env *bench.Env) (string, error) {
			_, s, err := env.SegmentSweep()
			return s, err
		}},
		{"coupling", "decoupled-model validation (finite queues vs max bound)", func(env *bench.Env) (string, error) {
			_, s, err := env.Coupling()
			return s, err
		}},
	}
}

// experimentNames returns the selectable names in order.
func experimentNames() []string {
	exps := experiments()
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.name
	}
	return names
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the testable entry point: it parses args, runs the
// selected experiments and returns the process exit status.
func realMain(args []string, stdout, stderr io.Writer) int {
	exps := experiments()
	fs := flag.NewFlagSet("haacbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleFlag := fs.String("scale", "paper", "workload scale: paper or small")
	expFlag := fs.String("experiments", "all",
		"comma-separated experiment list ("+strings.Join(experimentNames(), ", ")+", all)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	known := map[string]bool{"all": true}
	for _, e := range exps {
		known[e.name] = true
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		name := strings.TrimSpace(strings.ToLower(e))
		if name == "" {
			continue
		}
		if !known[name] {
			fmt.Fprintf(stderr, "unknown experiment %q (want %s or all)\n",
				name, strings.Join(experimentNames(), ", "))
			return 2
		}
		want[name] = true
	}
	all := want["all"]

	env := bench.NewEnv(scale)
	fmt.Fprintf(stdout, "HAAC evaluation harness — scale=%s\n", scale)
	fmt.Fprintf(stdout, "==================================================\n\n")

	for _, e := range exps {
		if !all && !want[e.name] {
			continue
		}
		start := time.Now()
		out, err := e.run(env)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "## %s (%s)\n\n%s\n[%s in %v]\n\n", e.name, e.title, out, e.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
