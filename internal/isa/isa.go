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
// wire from the out-of-range wire (OoRW) queue" (§3.1.4). The renaming
// pass therefore never assigns a wire a logical address congruent to
// 0 mod 2^17, so the truncated 17-bit field of an in-range wire can
// never collide with the sentinel.
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
// Address layout: address 0 is reserved (OoR sentinel); addresses
// [1, NumInputs] hold the preloaded input wires (party inputs and
// constants, in circuit order, skipping multiples of 2^17); subsequent
// instruction outputs continue the sequence in program order, also
// skipping multiples of 2^17.
type Program struct {
	Instrs []Instr
	// NumInputs counts preloaded input wires.
	NumInputs int
	// InputAddrs maps circuit input index -> wire address.
	InputAddrs []uint32
	// OutAddrs maps instruction index -> output wire address.
	OutAddrs []uint32
	// OutputAddrs lists the circuit's primary-output wire addresses.
	OutputAddrs []uint32
	// MaxAddr is the highest assigned wire address.
	MaxAddr uint32
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

// Validate checks structural sanity: output addresses strictly
// increasing, inputs referencing only previously defined addresses, and
// no in-range input using the reserved sentinel's physical slot.
func (p *Program) Validate() error {
	if len(p.OutAddrs) != len(p.Instrs) {
		return fmt.Errorf("isa: %d output addrs for %d instructions", len(p.OutAddrs), len(p.Instrs))
	}
	defined := uint32(0)
	for _, a := range p.InputAddrs {
		if a == 0 {
			return fmt.Errorf("isa: input assigned reserved address 0")
		}
		if a <= defined {
			return fmt.Errorf("isa: input addresses not increasing at %d", a)
		}
		defined = a
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		o := p.OutAddrs[i]
		if o <= defined {
			return fmt.Errorf("isa: instruction %d output addr %d not increasing", i, o)
		}
		if o%(1<<AddrBits) == 0 {
			return fmt.Errorf("isa: instruction %d output addr %d collides with OoR sentinel", i, o)
		}
		if in.Op != NOP {
			if in.A != OoR && in.A > defined {
				return fmt.Errorf("isa: instruction %d reads undefined wire %d", i, in.A)
			}
			if in.B != OoR && in.B > defined {
				return fmt.Errorf("isa: instruction %d reads undefined wire %d", i, in.B)
			}
		}
		defined = o
	}
	for _, o := range p.OutputAddrs {
		if o > defined || o == 0 {
			return fmt.Errorf("isa: program output addr %d undefined", o)
		}
	}
	return nil
}

// WriteTo serializes the program: a small header followed by packed
// instructions. It implements io.WriterTo.
func (p *Program) WriteTo(w io.Writer) (int64, error) {
	var n int64
	hdr := []uint64{
		uint64(len(p.Instrs)), uint64(p.NumInputs),
		uint64(len(p.OutputAddrs)), uint64(p.MaxAddr),
	}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return n, err
		}
		n += 8
	}
	write32 := func(vs []uint32) error {
		for _, v := range vs {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
			n += 4
		}
		return nil
	}
	if err := write32(p.InputAddrs); err != nil {
		return n, err
	}
	if err := write32(p.OutputAddrs); err != nil {
		return n, err
	}
	if err := write32(p.OutAddrs); err != nil {
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
