package isa

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"
)

// Unpack decodes a packed instruction, the inverse Pack is checked
// against. The recovered addresses are the
// physical 17-bit fields; logical addresses are not recoverable (nor
// needed by hardware).
func Unpack(v uint64) Instr {
	return Instr{
		Op:   Op(v & 3),
		A:    uint32(v >> 2 & AddrMask),
		B:    uint32(v >> (2 + AddrBits) & AddrMask),
		Live: v>>(2+2*AddrBits)&1 == 1,
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(op uint8, a, b uint32, live bool) bool {
		in := Instr{Op: Op(op % 3), A: a & AddrMask, B: b & AddrMask, Live: live}
		return Unpack(in.Pack()) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackTruncatesTo17Bits(t *testing.T) {
	in := Instr{Op: AND, A: 5 + 1<<AddrBits, B: 9 + 2<<AddrBits, Live: true}
	out := Unpack(in.Pack())
	if out.A != 5 || out.B != 9 {
		t.Fatalf("truncation wrong: %+v", out)
	}
}

func TestPackedFits37Bits(t *testing.T) {
	in := Instr{Op: AND, A: AddrMask, B: AddrMask, Live: true}
	if in.Pack() >= 1<<37 {
		t.Fatalf("packed form exceeds 37 bits: %#x", in.Pack())
	}
}

func validProgram() *Program {
	return &Program{
		NumInputs:   3,
		Instrs:      []Instr{{Op: XOR, A: 1, B: 2}, {Op: AND, A: 3, B: 4, Live: true}, {Op: XOR, A: OoR, B: 5}},
		OutputAddrs: []uint32{6},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	// With 2^17 inputs the address 2^17 lies below the defined frontier,
	// but it is no wire: Pack would truncate it to the OoR sentinel.
	const alias = 1 << AddrBits
	cases := map[string]func(*Program){
		"undefined read":       func(p *Program) { p.Instrs[0].A = 99 },
		"read of own output":   func(p *Program) { p.Instrs[1].B = 5 },
		"undefined output":     func(p *Program) { p.OutputAddrs[0] = 99 },
		"zero output":          func(p *Program) { p.OutputAddrs[0] = OoR },
		"negative input count": func(p *Program) { p.NumInputs = -1 },
		"operand aliases OoR":  func(p *Program) { p.NumInputs = alias; p.Instrs[2].B = alias },
		"output aliases OoR":   func(p *Program) { p.NumInputs = alias; p.OutputAddrs[0] = alias },
	}
	for name, mutate := range cases {
		p := validProgram()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRenamingSequentialAndSkipsSentinel(t *testing.T) {
	prev := uint32(0)
	for i := 0; i < 3*(1<<AddrBits); i++ {
		v := Addr(i)
		if v <= prev {
			t.Fatalf("Addr(%d) = %d, not above Addr(%d) = %d", i, v, i-1, prev)
		}
		if v%(1<<AddrBits) == 0 {
			t.Fatalf("Addr(%d) = %d collides with the OoR sentinel", i, v)
		}
		if i > 0 && NextAddr(prev) != v {
			t.Fatalf("NextAddr(%d) = %d, want %d", prev, NextAddr(prev), v)
		}
		if r := Rank(v); r != i {
			t.Fatalf("Rank(%d) = %d, want %d", v, r, i)
		}
		prev = v
	}
	if NextAddr(OoR) != Addr(0) {
		t.Fatalf("NextAddr(0) = %d, want %d", NextAddr(OoR), Addr(0))
	}
	if m := (&Program{}).MaxAddr(); m != 0 {
		t.Fatalf("empty program MaxAddr() = %d, want 0", m)
	}
	if m := validProgram().MaxAddr(); m != 6 {
		t.Fatalf("MaxAddr() = %d, want 6", m)
	}
}

func TestCounts(t *testing.T) {
	p := validProgram()
	if p.NumANDs() != 1 {
		t.Fatalf("NumANDs = %d", p.NumANDs())
	}
	if p.LiveCount() != 1 {
		t.Fatalf("LiveCount = %d", p.LiveCount())
	}
}

// TestSerializationRoundTrip reads the WriteTo layout back: a four-word
// header, the input, program output and instruction output addresses,
// and the packed instructions, all little-endian.
func TestSerializationRoundTrip(t *testing.T) {
	p := validProgram()
	var buf bytes.Buffer
	n, err := p.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if n != int64(len(b)) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, len(b))
	}
	le := binary.LittleEndian
	hdr := []uint64{uint64(len(p.Instrs)), uint64(p.NumInputs), uint64(len(p.OutputAddrs)), 6}
	for i, want := range hdr {
		if got := le.Uint64(b[8*i:]); got != want {
			t.Fatalf("header word %d = %d, want %d", i, got, want)
		}
	}
	b = b[8*len(hdr):]
	for _, addrs := range [][]uint32{{1, 2, 3}, p.OutputAddrs, {4, 5, 6}} {
		for _, want := range addrs {
			if got := le.Uint32(b); got != want {
				t.Fatalf("address %d, want %d", got, want)
			}
			b = b[4:]
		}
	}
	if len(b) != EncodedSize*len(p.Instrs) {
		t.Fatalf("%d instruction bytes, want %d", len(b), EncodedSize*len(p.Instrs))
	}
	for i := range p.Instrs {
		if got := Unpack(le.Uint64(b[EncodedSize*i:])); got != p.Instrs[i] {
			t.Fatalf("instruction %d changed: %+v vs %+v", i, got, p.Instrs[i])
		}
	}
}

func TestOpString(t *testing.T) {
	if NOP.String() != "NOP" || XOR.String() != "XOR" || AND.String() != "AND" {
		t.Fatal("op mnemonics wrong")
	}
}

func TestInstrString(t *testing.T) {
	cases := map[string]Instr{
		"NOP":                  {Op: NOP},
		"XOR w1, w2":           {Op: XOR, A: 1, B: 2},
		"AND w3, [OoRW] !live": {Op: AND, A: 3, B: OoR, Live: true},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestDisassemble(t *testing.T) {
	p := validProgram()
	var buf bytes.Buffer
	if err := Disassemble(&buf, p, 0); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{".inputs w1 w2 w3", "w4", "AND w3, w4 !live", ".outputs w6"} {
		if !strings.Contains(s, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, s)
		}
	}
	// Truncation.
	buf.Reset()
	if err := Disassemble(&buf, p, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2 more instructions") {
		t.Fatal("truncation marker missing")
	}
}
