// Command benchmark is the repository's benchmark: five named
// workloads run against the real layers in one process, every output
// checked against the plaintext oracle, every metric printed by name
// with its unit. Layers are measured from outside, by timing calls into
// their public functions. See README.md and ../BENCHMARK.json.
//
//	go run ./benchmark                         # all workloads, end-to-end metrics
//	go run ./benchmark -trace 1 -spans s.json  # traced pass: per-layer metrics
//	go run ./benchmark -repeat 2               # two sets, compared against the bounds
//	go run ./benchmark -workload serve.small -seed 7 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// scale sizes a run. full is what BENCHMARK.json's numbers refer to;
// smoke is the in-test size (tiny circuits, a handful of ops).
type scale struct {
	smoke     bool
	setups    int           // set-ups per run; setup_s is their median
	warmups   int           // ops per client before the window
	minOps    int           // ops per client, whatever the window length
	minPasses int           // accel.vip timed passes, whatever the window length
	peelIters int           // iterations of each standalone entry point
	viewReps  int           // compile+simulate repetitions of a served circuit per chunk
	viewChunk time.Duration // ...continued until the chunk has lasted this long
}

var scales = map[string]scale{
	"full":  {setups: 3, warmups: 3, minOps: 20, minPasses: 4, peelIters: 20, viewReps: 2, viewChunk: 400 * time.Millisecond},
	"smoke": {smoke: true, setups: 1, warmups: 1, minOps: 4, minPasses: 2, peelIters: 2, viewReps: 1},
}

// config is one invocation's settings, shared by every workload.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	sc      scale
	tr      *tracer // nil unless trace
	// corruptOracle flips one expected bit per input vector: the test's
	// proof that a wrong output is counted and fails the command.
	corruptOracle bool
}

func main() {
	keepFreedMemory()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all five)")
	seed := fs.Int64("seed", 1, "seeds the garbler inputs and the ring of 16 evaluator-input vectors")
	seconds := fs.Float64("seconds", 12, "length of each workload's measured window")
	trace := fs.Int("trace", 0, "1 = traced pass: record spans and report the per-layer metrics instead of the end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON")
	repeat := fs.Int("repeat", 1, "run the whole set this many times and compare the first two against the bounds")
	scaleName := fs.String("scale", "full", "full or smoke")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, ok := scales[*scaleName]
	if !ok || fs.NArg() > 0 || *repeat < 1 || *seconds <= 0 || (*repeat > 1 && *trace != 0) {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	var defs []workloadDef
	for _, d := range workloadDefs {
		if *workload == "" || *workload == d.name {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace != 0, sc: sc}
	printEnv(stdout, cfg, *scaleName)
	return execute(cfg, defs, *repeat, *spans, stdout, stderr)
}

// execute runs the chosen workloads repeat times and returns the exit
// code: non-zero when a workload errored, any op failed, or two sets
// disagreed by more than a bound.
func execute(cfg *config, defs []workloadDef, repeat int, spans string, stdout, stderr io.Writer) int {
	if cfg.trace {
		cfg.tr = newTracer()
	}
	code := 0
	sets := make([][]*result, repeat)
	for rep := range sets {
		results, ok := runSet(defs, cfg, stdout, stderr)
		if !ok {
			code = 1
		}
		sets[rep] = results
	}
	if repeat > 1 && code == 0 && !compareSets(stdout, sets[0], sets[1]) {
		code = 1
	}
	if cfg.trace && spans != "" {
		if err := cfg.tr.write(spans); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if len(defs) == 1 && repeat == 1 && sets[0][0] != nil {
		// The driver reads the last line.
		fmt.Fprintln(stdout, resultJSON(sets[0][0], cfg.trace))
	}
	return code
}

func printEnv(w io.Writer, cfg *config, scaleName string) {
	commit := "unknown" // go run does not stamp the revision, and the driver's checkout has none
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# haac benchmark: nproc=%d GOMAXPROCS=%d go=%s GODEBUG=%s commit=%s seed=%d seconds=%g scale=%s trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), os.Getenv("GODEBUG"), commit, cfg.seed, cfg.seconds, scaleName, cfg.trace)
	fmt.Fprintln(w, "# serve.* are closed loop (a client waits for its reply before its next op) over loopback TCP; the load generator is this process, at most 2 client connections.")
	fmt.Fprintln(w, "# sim.*, sim_cycles_geomean and energy.* are simulated (the modelled accelerator); every s/ms/us/ns figure is host time.")
	fmt.Fprintln(w, "# The accelerator model is unvalidated per program: the repo holds only the paper's aggregate ratios, so no error figure is given.")
}

// runSet runs the workloads once each and prints their reports. ok is
// false when a workload errored or any op failed.
func runSet(defs []workloadDef, cfg *config, stdout, stderr io.Writer) (results []*result, ok bool) {
	ok = true
	for _, d := range defs {
		if cfg.tr != nil {
			cfg.tr.workload = d.name
		}
		r, err := d.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", d.name, err)
			results, ok = append(results, nil), false
			continue
		}
		if err := complete(r, cfg.trace); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", d.name, err)
			results, ok = append(results, nil), false
			continue
		}
		printResult(stdout, r, cfg.trace)
		if r.failed > 0 {
			ok = false
		}
		results = append(results, r)
	}
	return results, ok
}

// reported is the metric list of a pass: per-layer when traced,
// end-to-end otherwise.
func reported(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// complete checks that the workload reported every metric of the pass
// as a finite number. A layer the workload does not exercise reads 0;
// an end-to-end metric must be set and positive.
func complete(r *result, traced bool) error {
	for _, m := range reported(traced) {
		v, ok := r.values[m.name]
		if !ok && traced {
			r.values[m.name] = 0
			continue
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v <= 0 && r.failed == 0) {
			return fmt.Errorf("metric %s not measured (%v)", m.name, v)
		}
	}
	return nil
}

func printResult(w io.Writer, r *result, traced bool) {
	fmt.Fprintf(w, "== %s   ops_attempted %d count   ops_failed %d count\n", r.workload, r.attempted, r.failed)
	for _, l := range r.detail {
		fmt.Fprintln(w, l)
	}
	for _, m := range reported(traced) {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", m.name, r.values[m.name], m.unit)
	}
}

// resultJSON renders the driver's result line.
func resultJSON(r *result, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range reported(traced) {
		out.Metrics[m.name] = value{r.values[m.name], m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // values were checked finite
	}
	return string(b)
}

// compareSets prints, per workload and end-to-end metric, both sets'
// values, their relative difference and the bound, and reports whether
// every difference is within its bound. Simulated cycles must repeat
// exactly.
func compareSets(w io.Writer, a, b []*result) bool {
	ok := true
	fmt.Fprintf(w, "== repeat: set 1 vs set 2\n  %-14s %-20s %16s %16s %9s %8s\n", "workload", "metric", "set1", "set2", "diff", "bound")
	for i := range a {
		for _, m := range endToEnd {
			x, y := a[i].values[m.name], b[i].values[m.name]
			diff := math.Abs(x-y) / math.Abs(x)
			verdict := ""
			if diff > m.bound || (m.name == "sim_cycles_geomean" && x != y) {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Fprintf(w, "  %-14s %-20s %16.6g %16.6g %8.2f%% %7.1f%%%s\n", a[i].workload, m.name, x, y, 100*diff, 100*m.bound, verdict)
		}
	}
	return ok
}
