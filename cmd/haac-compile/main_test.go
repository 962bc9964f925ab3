package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompileWorkload(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-workload", "Hamm-50", "-disasm", "4"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	s := out.String()
	for _, want := range []string{"circuit   Hamm-50", "program", "schedule  Full reorder", "traffic"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestCompileWritesProgram(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prog.haac")
	var out, errw bytes.Buffer
	code := run([]string{"-workload", "Million-8", "-o", path}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "wrote "+path) {
		t.Fatalf("no write confirmation:\n%s", out.String())
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("serialized program is empty")
	}
}

// TestProgramFilesPinned pins the -o file format by digest: the SHA-256
// of the serialized program for every reduced-size VIP workload at the
// default schedule. A change to the file layout, the instruction packing
// or the compiled program itself moves a digest.
func TestProgramFilesPinned(t *testing.T) {
	want := map[string]string{
		"BubbSt":   "027349dfd58c3770c18bb3c111b33c62216fa1e430e69439e118a341a124eb89", // 65576 bytes
		"DotProd":  "ff521b5d31860bb364d16a632f066bf27463a5024b62f5c31e7a12a639d13c58", // 73932 bytes
		"Merse":    "4144f7e0721d9b480c6ac7500b445eb454bf206aaaad6cd66f9d3c00ca689c5d", // 98816 bytes
		"Triangle": "621a021407545bd298fa3dce342b318aa1e4379f1c2ed00042ae920ffe44e7b4", // 12740 bytes
		"Hamm":     "df11e7c077000dce3357cb518e8f967aac1c2f5962b5357985797dbb0f894128", // 12880 bytes
		"MatMult":  "cb81ccaddb6fde84a1fccff287ec07da096aeaff41f2eb8eebdf880ce1afb386", // 242284 bytes
		"ReLU":     "809d4e91f51849a82dc662f1b96d0a7db13f3cf92d5b51abbffa8b0e67c5a7e3", // 5160 bytes
		"GradDesc": "14df33ba47d59d3a81923cf93af19420620c6a765bdf5ff0d0c5e80529df8b6d", // 1520592 bytes
	}
	dir := t.TempDir()
	for name, sum := range want {
		path := filepath.Join(dir, name+".haac")
		var out, errw bytes.Buffer
		if code := run([]string{"-small", "-workload", name, "-o", path}, &out, &errw); code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", name, code, errw.String())
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(b)
		if got := hex.EncodeToString(h[:]); got != sum {
			t.Errorf("%s: program file sha256 %s, want %s", name, got, sum)
		}
	}
}

// TestDisasmPinned pins the -disasm listing by digest: the SHA-256 of
// stdout for the first 300 instructions of every reduced-size VIP
// workload at the default schedule. It reads the per-GE counts, the
// input and output addresses and every instruction's output address,
// which the program file alone does not show in text.
func TestDisasmPinned(t *testing.T) {
	want := map[string]string{
		"BubbSt":   "79825ab12ebde4e1326ee7c93e5f5cdd2920819adedcf2220f7d6dea8eec666f",
		"DotProd":  "7f31558c514088128e19bd20b56e9d26d1e9d48d8a903649f12fce09c25bfa0d",
		"Merse":    "42d56115f60b70b3f6454407860642ec0fabbe37f5f6ee56d163928ebfb1684d",
		"Triangle": "41866110be8656176caf394aef3c15e2d357f3e5145e04f2a4c78c8ce04ff2e5",
		"Hamm":     "76f2c5cd9d648de6ff94f27824b12140efae734f169c896d8c8a8d8874762f4c",
		"MatMult":  "a2ffd932945988b2435a1f8d9d8c853ac863e64938f0813a78693179b2e187cf",
		"ReLU":     "8814ebc382dbf28c25403e1dd81cfb31959ca872eae98fb718796a3b6763260e",
		"GradDesc": "79d18aefa52c62842587dec19160076c281a322d375ab20bddacdd5c5a01cb35",
	}
	for name, sum := range want {
		var out, errw bytes.Buffer
		if code := run([]string{"-small", "-workload", name, "-disasm", "300"}, &out, &errw); code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", name, code, errw.String())
		}
		h := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(h[:]); got != sum {
			t.Errorf("%s: -disasm 300 output sha256 %s, want %s", name, got, sum)
		}
	}
}

func TestCompileBadArgs(t *testing.T) {
	cases := [][]string{
		{},                           // neither -in nor -workload
		{"-workload", "NoSuchThing"}, // unknown workload
		{"-workload", "Million-8", "-reorder", "sideways"}, // bad mode
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Fatalf("args %v: exit %d, want 2", args, code)
		}
	}
}

// TestCompileRejectsHostileBristol: a netlist header that claims a
// negative or impossible size is an input error, not a crash.
func TestCompileRejectsHostileBristol(t *testing.T) {
	dir := t.TempDir()
	for i, netlist := range []string{
		"-1 3\n1 0 1\n",            // negative gate count
		"1 3\n1 0 -1\n",            // negative output count
		"1000000000000 3\n1 0 1\n", // gate count beyond the file
	} {
		path := filepath.Join(dir, "hostile.txt")
		if err := os.WriteFile(path, []byte(netlist), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errw bytes.Buffer
		if code := run([]string{"-in", path}, &out, &errw); code == 0 {
			t.Errorf("case %d: exit 0 on a hostile netlist", i)
		}
		if !strings.Contains(errw.String(), "bristol:") {
			t.Errorf("case %d: stderr %q does not name the parse error", i, errw.String())
		}
	}
}
