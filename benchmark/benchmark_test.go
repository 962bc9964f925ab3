package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesProgram: BENCHMARK.json and the program's metric
// and workload tables are the same list, in the same order.
func TestContractMatchesProgram(t *testing.T) {
	c := readContract(t)
	if !reflect.DeepEqual(c.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(c.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", c.Command, c.Paths)
	}
	if len(c.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloadDefs))
	}
	for i, w := range c.Workloads {
		if d := workloadDefs[i]; w.Name != d.name || w.Why != d.why {
			t.Errorf("workload %d: %q/%q in BENCHMARK.json, %q/%q in the program", i, w.Name, w.Why, d.name, d.why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the program", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program", kind, m.Name, m.Bound, d.bound)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
}

func smokeConfig(traced bool) *config {
	cfg := &config{seed: 3, seconds: 0.05, trace: traced, sc: scales["smoke"]}
	if traced {
		cfg.tr = newTracer()
	}
	return cfg
}

func runSmoke(t *testing.T, cfg *config, out io.Writer) []*result {
	t.Helper()
	var errs bytes.Buffer
	results, ok := runSet(workloadDefs, cfg, out, &errs)
	if !ok {
		t.Fatalf("smoke run failed: %s", errs.String())
	}
	return results
}

// TestSmoke runs every workload at smoke scale, untraced and traced,
// twice each: every name in BENCHMARK.json appears in the output with
// its unit, no op fails, and the counts repeat.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	var plainOut, tracedOut bytes.Buffer
	plain := [2][]*result{runSmoke(t, smokeConfig(false), &plainOut), runSmoke(t, smokeConfig(false), io.Discard)}
	traced := [2][]*result{runSmoke(t, smokeConfig(true), &tracedOut), runSmoke(t, smokeConfig(true), io.Discard)}

	for _, pass := range []struct {
		out     string
		metrics []contractMetric
	}{{plainOut.String(), c.EndToEnd}, {tracedOut.String(), c.PerLayer}} {
		sections := strings.Split(pass.out, "== ")[1:]
		if len(sections) != len(c.Workloads) {
			t.Fatalf("%d workload sections in the output, want %d", len(sections), len(c.Workloads))
		}
		for i, w := range c.Workloads {
			if !strings.HasPrefix(sections[i], w.Name+" ") || !strings.Contains(sections[i], "ops_failed 0 count") {
				t.Errorf("section %d does not report %s with ops_failed 0:\n%s", i, w.Name, sections[i])
			}
			for _, m := range pass.metrics {
				found := false
				for _, line := range strings.Split(sections[i], "\n") {
					f := strings.Fields(line)
					found = found || (len(f) == 3 && f[0] == m.Name && f[2] == m.Unit)
				}
				if !found {
					t.Errorf("%s: metric %s [%s] missing from the output", w.Name, m.Name, m.Unit)
				}
			}
		}
	}

	for i, w := range workloadDefs {
		a, b := plain[0][i].values, plain[1][i].values
		if a["sim_cycles_geomean"] != b["sim_cycles_geomean"] {
			t.Errorf("%s: sim_cycles_geomean %v then %v", w.name, a["sim_cycles_geomean"], b["sim_cycles_geomean"])
		}
		// Background refills land on either side of a window this
		// short, so smoke-scale wire bytes repeat only on workloads
		// that do not pool; full scale holds the 1% bound everywhere.
		if x, y := a["wire_bytes_per_run"], b["wire_bytes_per_run"]; (w.name == "serve.churn" || w.name == "accel.vip") && math.Abs(x-y) > 0.01*x {
			t.Errorf("%s: wire_bytes_per_run %v then %v", w.name, x, y)
		}
		ta, tb := traced[0][i].values, traced[1][i].values
		for _, name := range []string{"gc.and_gates_per_run", "ot.ots_per_run", "proto.table_bytes_per_and", "proto.bytes_per_run", "compiler.instrs", "sim.total_cycles"} {
			if ta[name] != tb[name] {
				t.Errorf("%s: %s %v then %v", w.name, name, ta[name], tb[name])
			}
		}
	}
}

// TestResultLine: with one workload selected the last line of the
// output is the driver's JSON object, with exactly its four keys and
// every end-to-end metric.
func TestResultLine(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "serve.small", "--seed", "5", "--seconds", "0.05", "--trace", "0", "-scale", "smoke"}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("result keys: %v", got)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if v := metrics[m.name]; v.Unit != m.unit || v.Value <= 0 {
			t.Errorf("%s: %+v", m.name, v)
		}
	}
}

// TestWrongOracleFails: a deliberately wrong expected output is counted
// as failed ops and turns the exit code non-zero.
func TestWrongOracleFails(t *testing.T) {
	for _, name := range []string{"serve.small", "accel.vip"} {
		var defs []workloadDef
		for _, d := range workloadDefs {
			if d.name == name {
				defs = append(defs, d)
			}
		}
		cfg := smokeConfig(false)
		cfg.corruptOracle = true
		var out, errs bytes.Buffer
		code := execute(cfg, defs, 1, "", &out, &errs)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got struct {
			Correct bool
			Failed  int
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("%s: %v\n%s%s", name, err, out.String(), errs.String())
		}
		if code == 0 || got.Correct || got.Failed == 0 {
			t.Errorf("%s: exit %d, correct %v, failed %d; want a failure", name, code, got.Correct, got.Failed)
		}
	}
}
