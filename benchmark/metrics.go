package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one number of the benchmark's contract. The tables
// below are the program's copy of BENCHMARK.json; the test asserts the
// two agree, so a metric cannot be renamed in one place only.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd lists what a user of the system sees. Every workload
// reports all six (the driver's contract), so each has a primary
// definition on the workloads it was designed for and a secondary one
// elsewhere — see README.md, "End-to-end metrics".
var endToEnd = []metricDef{
	{"runs_per_s", "ops/s", "higher", 0.25},
	{"run_ms_p50", "ms", "lower", 0.25},
	{"wire_bytes_per_run", "bytes", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
	// Simulated cycles repeat exactly; the program itself rejects any
	// difference between passes or -repeat sets. The bound is not 0
	// only because a spread cannot be "below a third of" zero.
	{"sim_cycles_geomean", "cycles", "lower", 0.001},
	{"compile_sim_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer numbers of the traced pass (layer =
// package name under internal/). They carry no bound. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"circuit.plan_build_ms", "ms", "lower", 0},
	{"circuit.plan_builds", "count", "lower", 0},
	{"circuit.peak_live_slots", "count", "lower", 0},
	{"gc.garble_ns_per_and", "ns", "lower", 0},
	{"gc.eval_ns_per_and", "ns", "lower", 0},
	{"gc.and_gates_per_run", "count", "lower", 0},
	{"gc.allocs_per_run", "count", "lower", 0},
	{"proto.table_bytes_per_and", "bytes", "lower", 0},
	{"proto.bytes_per_run", "bytes", "lower", 0},
	{"proto.run_ms", "ms", "lower", 0},
	{"proto.overlap_ratio", "ratio", "higher", 0},
	{"ot.derand_us_per_ot", "us", "lower", 0},
	{"ot.fill_us_per_ot", "us", "lower", 0},
	{"ot.bytes_per_ot", "bytes", "lower", 0},
	{"ot.ots_per_run", "count", "lower", 0},
	{"ot.pool_hit_ratio", "ratio", "higher", 0},
	{"ot.base_ms", "ms", "lower", 0},
	{"ot.iknp_us_per_ot", "us", "lower", 0},
	{"ot.base_rounds", "count", "lower", 0},
	{"server.run_overhead_ms", "ms", "lower", 0},
	{"server.dial_ms", "ms", "lower", 0},
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.runs_failed", "count", "lower", 0},
	{"server.sessions_refused", "count", "lower", 0},
	{"fleet.dial_overhead_ms", "ms", "lower", 0},
	{"fleet.run_overhead_ms", "ms", "lower", 0},
	{"fleet.failovers", "count", "lower", 0},
	{"fleet.bytes_spliced", "bytes", "lower", 0},
	{"compiler.compile_s", "s", "lower", 0},
	{"compiler.instrs", "count", "lower", 0},
	{"compiler.oor_wires", "count", "lower", 0},
	{"compiler.live_wires", "count", "lower", 0},
	{"sim.host_s", "s", "lower", 0},
	{"sim.total_cycles", "cycles", "lower", 0},
	{"sim.compute_cycles", "cycles", "lower", 0},
	{"sim.traffic_cycles", "cycles", "lower", 0},
	{"sim.data_stall_cycles", "cycles", "lower", 0},
	{"sim.bank_conflicts", "count", "lower", 0},
	{"sim.utilization", "ratio", "higher", 0},
	{"sim.instrs_per_host_s", "1/s", "higher", 0},
	{"energy.total_uj", "uJ", "lower", 0},
	{"allocs_per_run", "count", "lower", 0},
	{"heap_peak_mb", "MB", "lower", 0},
	{"run_ms_p90", "ms", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},
}

// workloadDef is one named workload; later issues cite the names.
type workloadDef struct {
	name string
	why  string
	run  func(cfg *config) (*result, error)
}

var workloadDefs = func() []workloadDef {
	var defs []workloadDef
	for _, spec := range serveSpecs {
		defs = append(defs, workloadDef{spec.name, spec.why, func(cfg *config) (*result, error) { return runServe(spec, cfg) }})
	}
	return append(defs, workloadDef{"accel.vip", "compile + simulate + energy over the 8 paper-scale VIP programs: the hardware half of the co-design, untouched by serve.*", runAccelVIP})
}()

// result is what one workload run reports.
type result struct {
	workload  string
	attempted int
	failed    int
	values    map[string]float64 // metric name -> value
	detail    []string           // extra human-readable lines
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func newResult(workload string) *result {
	return &result{workload: workload, values: map[string]float64{}}
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile returns the p-quantile by linear interpolation between
// order statistics.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	if len(v) == 1 {
		return v[0] // exp(log(x)) would round
	}
	var sum float64
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// segmentRates splits the completion times of the verified ops (offsets
// from the window start, sorted) into equal-count segments and returns
// each segment's rate in ops/s. Reporting the median segment means one
// noisy-neighbour burst inside the window cannot move the result.
func segmentRates(ends []time.Duration, segments int) []float64 {
	n := len(ends)
	if n == 0 {
		return nil
	}
	if n < segments {
		segments = n
	}
	rates := make([]float64, 0, segments)
	var from time.Duration
	for i := 0; i < segments; i++ {
		lo, hi := i*n/segments, (i+1)*n/segments
		to := ends[hi-1]
		rates = append(rates, ratio(float64(hi-lo), (to-from).Seconds()))
		from = to
	}
	return rates
}
