// Package emit provides the machine-code assembler shared by the
// baseline and optimizing compilers: instruction emission with label
// fixups, per-instruction provenance recording (bytecode index and IR
// id), GC-point registration, and installation of the finished body
// into the CPU's code space with a complete mcmap.MCMap.
package emit

import (
	"fmt"

	"hpmvm/internal/hw/cpu"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/mcmap"
)

// Assembler accumulates machine code for one method body.
type Assembler struct {
	cpu    *cpu.CPU
	base   uint64
	instrs []cpu.Instr
	bci    []int32
	irid   []int32
	points []mcmap.GCPoint

	labels []int // label id -> instruction index (-1 unbound)
	fixups []fixup
}

type fixup struct {
	instr int
	label int
}

// New starts an assembler whose code will be installed at the CPU's
// next free code address.
func New(c *cpu.CPU) *Assembler {
	return &Assembler{cpu: c, base: c.NextCodeAddr()}
}

// Base returns the address the body will start at.
func (a *Assembler) Base() uint64 { return a.base }

// PC returns the address of the next instruction to be emitted.
func (a *Assembler) PC() uint64 {
	return a.base + uint64(len(a.instrs))*cpu.InstrBytes
}

// Len returns the number of instructions emitted so far.
func (a *Assembler) Len() int { return len(a.instrs) }

// Emit appends an instruction with its provenance and returns its
// index. Use mcmap.NoBCI for synthetic instructions.
func (a *Assembler) Emit(in cpu.Instr, bci, irid int32) int {
	a.instrs = append(a.instrs, in)
	a.bci = append(a.bci, bci)
	a.irid = append(a.irid, irid)
	return len(a.instrs) - 1
}

// Patch rewrites the immediate of a previously emitted instruction
// (frame-size backpatching).
func (a *Assembler) Patch(idx int, imm int64) {
	a.instrs[idx].Imm = imm
}

// NewLabel allocates an unbound label.
func (a *Assembler) NewLabel() int {
	a.labels = append(a.labels, -1)
	return len(a.labels) - 1
}

// Bind attaches a label to the current position.
func (a *Assembler) Bind(label int) {
	if a.labels[label] != -1 {
		panic(fmt.Sprintf("emit: label %d bound twice", label))
	}
	a.labels[label] = len(a.instrs)
}

// Bound reports whether the label has been bound.
func (a *Assembler) Bound(label int) bool { return a.labels[label] != -1 }

// EmitJump emits an instruction whose Imm is the address of label
// (branches and jumps), fixing it up at Finish if the label is still
// unbound.
func (a *Assembler) EmitJump(in cpu.Instr, label int, bci, irid int32) int {
	if a.labels[label] != -1 {
		in.Imm = int64(a.base + uint64(a.labels[label])*cpu.InstrBytes)
	} else {
		a.fixups = append(a.fixups, fixup{instr: len(a.instrs), label: label})
		in.Imm = -1
	}
	return a.Emit(in, bci, irid)
}

// GCPoint records a GC map for the most recently emitted instruction.
func (a *Assembler) GCPoint(refRegs uint16, refSlots uint64, bci int32) {
	pc := a.base + uint64(len(a.instrs)-1)*cpu.InstrBytes
	a.points = append(a.points, mcmap.GCPoint{PC: pc, BCI: bci, RefRegs: refRegs, RefSlots: refSlots})
}

// Finish resolves fixups, installs the code into the CPU and returns
// the completed machine-code map (not yet registered in any table).
func (a *Assembler) Finish(m *classfile.Method, opt bool, frameSlots int) *mcmap.MCMap {
	for _, fx := range a.fixups {
		idx := a.labels[fx.label]
		if idx == -1 {
			panic(fmt.Sprintf("emit: %s: unbound label %d", m.QualifiedName(), fx.label))
		}
		a.instrs[fx.instr].Imm = int64(a.base + uint64(idx)*cpu.InstrBytes)
	}
	start := a.cpu.InstallCode(a.instrs)
	if start != a.base {
		panic(fmt.Sprintf("emit: %s: code moved during compilation (%#x vs %#x): interleaved installs", m.QualifiedName(), start, a.base))
	}
	return &mcmap.MCMap{
		Method:     m,
		Start:      start,
		End:        start + uint64(len(a.instrs))*cpu.InstrBytes,
		Opt:        opt,
		FrameSlots: frameSlots,
		BCIndex:    a.bci,
		IRID:       a.irid,
		GCPoints:   a.points,
	}
}

// SlotOffset returns the frame-pointer-relative byte offset of frame
// slot i under the universal frame layout (slot i lives at fp-8*(i+1)).
func SlotOffset(i int) int64 { return -8 * int64(i+1) }
