package isa

import (
	"bufio"
	"fmt"
	"io"
)

// Disassembly support: human-readable program listings for debugging
// compiler passes and inspecting instruction streams.

// String renders one instruction; OoR operands print as "[OoRW]".
func (in Instr) String() string {
	if in.Op == NOP {
		return "NOP"
	}
	live := ""
	if in.Live {
		live = " !live"
	}
	return fmt.Sprintf("%s %s, %s%s", in.Op, fmtAddr(in.A), fmtAddr(in.B), live)
}

func fmtAddr(a uint32) string {
	if a == OoR {
		return "[OoRW]"
	}
	return fmt.Sprintf("w%d", a)
}

// Disassemble writes a listing of the program to w: the input map, then
// one line per instruction with its implicit output address, then the
// program outputs. maxInstrs limits the body (0 = all).
func Disassemble(w io.Writer, p *Program, maxInstrs int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "; %d instructions (%d AND, %d live), %d inputs, %d outputs, max addr %d\n",
		len(p.Instrs), p.NumANDs(), p.LiveCount(), p.NumInputs, len(p.OutputAddrs), p.MaxAddr())
	fmt.Fprintf(bw, ".inputs")
	for i := 0; i < p.NumInputs; i++ {
		if i == 16 && p.NumInputs > 20 {
			fmt.Fprintf(bw, " ... (%d more)", p.NumInputs-i)
			break
		}
		fmt.Fprintf(bw, " w%d", Addr(i))
	}
	fmt.Fprintln(bw)

	n := len(p.Instrs)
	truncated := false
	if maxInstrs > 0 && n > maxInstrs {
		n = maxInstrs
		truncated = true
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(bw, "%8d:  w%-8d = %s\n", i, p.OutAddr(i), p.Instrs[i])
	}
	if truncated {
		fmt.Fprintf(bw, "  ... (%d more instructions)\n", len(p.Instrs)-n)
	}
	fmt.Fprintf(bw, ".outputs")
	for i, a := range p.OutputAddrs {
		if i == 16 && len(p.OutputAddrs) > 20 {
			fmt.Fprintf(bw, " ... (%d more)", len(p.OutputAddrs)-i)
			break
		}
		fmt.Fprintf(bw, " w%d", a)
	}
	fmt.Fprintln(bw)
	return bw.Flush()
}
