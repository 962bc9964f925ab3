// Package isa defines the HAAC instruction set (§3.1.3 of the paper).
//
// A HAAC instruction carries an opcode (2 bits), two input wire
// addresses (17 bits each, sized for a 2 MB SWW), and a live bit that
// marks the output wire for spilling to DRAM. Output wire addresses are
// not encoded: the renaming compiler pass makes them sequential in
// program order, so hardware derives them from the program counter.
// There is no control flow and no memory instructions — conditionals are
// baked into the circuit and all data movement is stream-based.
//
// Wire address 0 is reserved: as an input field it means "pop the next
// wire from the out-of-range wire (OoRW) queue" (§3.1.4). This package
// owns the address sequence that keeps the two apart: Addr, NextAddr and
// Rank walk 1, 2, 3, … skipping every multiple of 2^17, so the truncated
// 17-bit field of an in-range wire can never collide with the sentinel.
// A program's wire addresses are that sequence's first NumInputs values
// for the inputs and then one value per instruction, in program order.
package isa

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Op is a HAAC opcode.
type Op uint8

const (
	// NOP does nothing; the compiler may use it for padding.
	NOP Op = iota
	// XOR is a FreeXOR gate: single-cycle label XOR in the GE.
	XOR
	// AND is a Half-Gate: the deep cryptographic pipeline, consuming one
	// table from the table queue.
	AND
)

// String returns the mnemonic.
func (o Op) String() string {
	switch o {
	case NOP:
		return "NOP"
	case XOR:
		return "XOR"
	case AND:
		return "AND"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// AddrBits is the width of an encoded input wire address field.
const AddrBits = 17

// AddrMask extracts an encoded address field.
const AddrMask = 1<<AddrBits - 1

// OoR is the reserved input address meaning "read from the OoRW queue".
const OoR uint32 = 0

// Addr returns the wire address of the given rank: the rank-th value
// (from 0) of the sequence 1, 2, 3, … that skips every multiple of
// 2^17. Each run of 2^17-1 ranks fills the addresses between two
// multiples.
func Addr(rank int) uint32 {
	r := uint32(rank)
	return r + 1 + r/AddrMask
}

// NextAddr returns the address after a in the sequence Addr walks.
func NextAddr(a uint32) uint32 {
	a++
	if a&AddrMask == 0 {
		a++
	}
	return a
}

// Rank inverts Addr: the 0-based position of address a in the sequence.
func Rank(a uint32) int {
	return int(a) - 1 - int(a>>AddrBits)
}

// EncodedSize is the stream footprint of one instruction in bytes. The
// packed fields occupy 37 bits; streams carry 8-byte words, the figure
// the DRAM traffic model charges per instruction.
const EncodedSize = 8

// Instr is one HAAC instruction. A and B hold full logical wire
// addresses inside the compiler; Pack truncates them to the 17-bit
// physical SWW fields for the hardware stream.
//
// The two addresses come first so the one-byte Op and Live pack behind
// them: 12 bytes per instruction in memory rather than 16 with Op
// first. Nothing depends on the field order; Pack fixes the encoding.
type Instr struct {
	A, B uint32
	Op   Op
	Live bool
}

// Pack encodes the instruction into its 37-bit hardware form (in a
// 64-bit word): op[1:0] | A[18:2] | B[35:19] | live[36]. Addresses are
// reduced to their physical 17-bit SWW form.
func (in Instr) Pack() uint64 {
	v := uint64(in.Op) & 3
	v |= uint64(in.A&AddrMask) << 2
	v |= uint64(in.B&AddrMask) << (2 + AddrBits)
	if in.Live {
		v |= 1 << (2 + 2*AddrBits)
	}
	return v
}

// Program is a complete HAAC program: a straight-line instruction list
// over a renamed, dense wire address space.
//
// Address layout: address 0 is reserved (OoR sentinel); input wire i
// (party inputs and constants, in circuit order) sits at Addr(i), and
// instruction j's output at Addr(NumInputs+j), which OutAddr returns.
// No address is stored beside that rule except the program outputs.
type Program struct {
	Instrs []Instr
	// NumInputs counts preloaded input wires.
	NumInputs int
	// OutputAddrs lists the circuit's primary-output wire addresses.
	OutputAddrs []uint32
}

// OutAddr returns instruction j's output wire address.
func (p *Program) OutAddr(j int) uint32 { return Addr(p.NumInputs + j) }

// MaxAddr returns the highest assigned wire address, 0 for a program
// with no inputs and no instructions.
func (p *Program) MaxAddr() uint32 {
	if n := p.NumInputs + len(p.Instrs); n > 0 {
		return Addr(n - 1)
	}
	return 0
}

// NumANDs counts AND instructions (== number of garbled tables).
func (p *Program) NumANDs() int {
	n := 0
	for i := range p.Instrs {
		if p.Instrs[i].Op == AND {
			n++
		}
	}
	return n
}

// LiveCount counts instructions whose output spills to DRAM.
func (p *Program) LiveCount() int {
	n := 0
	for i := range p.Instrs {
		if p.Instrs[i].Live {
			n++
		}
	}
	return n
}

// Validate checks structural sanity: every operand other than the OoR
// sentinel, and every program output, names a wire defined before its
// use. A nonzero multiple of 2^17 names no wire, since Pack would turn
// it into the sentinel, so it is rejected wherever it appears.
func (p *Program) Validate() error {
	if p.NumInputs < 0 {
		return fmt.Errorf("isa: %d inputs", p.NumInputs)
	}
	defined := func(a uint32, n int) bool { return a&AddrMask != 0 && Rank(a) < n }
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op == NOP {
			continue
		}
		n := p.NumInputs + i
		if in.A != OoR && !defined(in.A, n) {
			return fmt.Errorf("isa: instruction %d reads undefined wire %d", i, in.A)
		}
		if in.B != OoR && !defined(in.B, n) {
			return fmt.Errorf("isa: instruction %d reads undefined wire %d", i, in.B)
		}
	}
	for _, o := range p.OutputAddrs {
		if !defined(o, p.NumInputs+len(p.Instrs)) {
			return fmt.Errorf("isa: program output addr %d undefined", o)
		}
	}
	return nil
}

// WriteTo serializes the program: a small header, the input, program
// output and instruction output addresses (the first and last derived
// from the address rule), then the packed instructions. It implements
// io.WriterTo.
func (p *Program) WriteTo(w io.Writer) (int64, error) {
	var n int64
	hdr := []uint64{
		uint64(len(p.Instrs)), uint64(p.NumInputs),
		uint64(len(p.OutputAddrs)), uint64(p.MaxAddr()),
	}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return n, err
		}
		n += 8
	}
	// write32 writes at(0), …, at(count-1).
	write32 := func(count int, at func(int) uint32) error {
		for i := 0; i < count; i++ {
			if err := binary.Write(w, binary.LittleEndian, at(i)); err != nil {
				return err
			}
			n += 4
		}
		return nil
	}
	if err := write32(p.NumInputs, Addr); err != nil {
		return n, err
	}
	if err := write32(len(p.OutputAddrs), func(i int) uint32 { return p.OutputAddrs[i] }); err != nil {
		return n, err
	}
	if err := write32(len(p.Instrs), p.OutAddr); err != nil {
		return n, err
	}
	for i := range p.Instrs {
		if err := binary.Write(w, binary.LittleEndian, p.Instrs[i].Pack()); err != nil {
			return n, err
		}
		n += EncodedSize
	}
	return n, nil
}
