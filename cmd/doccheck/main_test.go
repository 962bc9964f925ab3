package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

// gatedPackages are the protocol-bearing packages — and the AES, label,
// circuit and garbling layers their bytes are made of — whose doc
// comments serve as the wire-format ground truth (see
// docs/ARCHITECTURE.md).
// CI runs `go run ./cmd/doccheck` over the same list; this test makes
// the gate part of plain `go test ./...` too.
var gatedPackages = []string{
	"internal/aes128",
	"internal/label",
	"internal/circuit",
	"internal/gc",
	"internal/ot",
	"internal/proto",
	"internal/server",
	"internal/fleet",
	"internal/faultnet",
}

func TestGatedPackagesDocumented(t *testing.T) {
	args := make([]string, len(gatedPackages))
	for i, p := range gatedPackages {
		args[i] = filepath.Join("..", "..", filepath.FromSlash(p))
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("doccheck exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
}

func TestRunUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no-args exit %d, want 2", code)
	}
	if code := run([]string{"testdata/no-such-dir"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad-dir exit %d, want 2", code)
	}
}

// TestDetectsViolations feeds the checker a fixture package with one
// of every violation class and asserts each is reported — a gate that
// cannot fail is no gate.
func TestDetectsViolations(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{filepath.Join("testdata", "undocd")}, &stdout, &stderr); code != 1 {
		t.Fatalf("fixture exit %d, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"package undocd has no package doc comment",
		"func Naked",
		"type Bare",
		"const Loose",
		"var Stray",
		"method Bare.Method",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	for _, wrongly := range []string{"Documented", "GroupA", "hidden", "unexported"} {
		if bytes.Contains([]byte(out), []byte(wrongly)) {
			t.Errorf("report flags documented/unexported symbol %q:\n%s", wrongly, out)
		}
	}
}
