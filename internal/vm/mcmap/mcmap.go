// Package mcmap implements the machine-code mapping infrastructure of
// §4.2: per-method maps from machine-code addresses back to Java
// bytecode indices (and, for opt-compiled code, IR instruction ids),
// GC maps at GC points, and the sorted global method table used to
// resolve a raw sample's program counter to a method.
//
// The paper's key compiler extension — generating the bytecode-index
// mapping for *every* machine instruction instead of only GC points —
// is what MCMap.BCIndex provides; the space-overhead numbers of
// Table 2 are computed from these structures.
package mcmap

import (
	"fmt"
	"sort"

	"hpmvm/internal/hw/cpu"
	"hpmvm/internal/vm/classfile"
)

// NoBCI marks machine instructions with no bytecode provenance
// (prologue, epilogue, trap blocks).
const NoBCI = int32(-1)

// GCPoint describes the live references at one GC-safe machine
// instruction (allocation traps and call sites). The collector uses it
// to find and update roots in the frame and registers.
type GCPoint struct {
	// PC is the address of the GC-point instruction.
	PC uint64
	// BCI is the bytecode index of the GC point.
	BCI int32
	// RefRegs is a bitmask over the 16 GPRs of registers holding live
	// references at this point.
	RefRegs uint16
	// RefSlots is a bitmask over frame slots (slot i = bit i, the slot
	// at fp-8*(i+1)) holding live references.
	RefSlots uint64
}

// Entry bytes used for space accounting, chosen to match a compact
// on-disk encoding: a GC point packs PC-delta, BCI, reg mask and slot
// mask; an MC map entry packs a bytecode index and an IR id.
const (
	gcPointBytes    = 24
	mcEntryBytes    = 8
	perMethodHeader = 32
)

// MCMap is the complete mapping record for one compiled method body.
type MCMap struct {
	Method *classfile.Method
	// Start and End delimit the method's machine code, [Start, End).
	Start, End uint64
	// Opt records whether this body came from the optimizing compiler.
	Opt bool
	// FrameSlots is the number of 8-byte frame slots below the frame
	// pointer (locals + spill temps).
	FrameSlots int

	// BCIndex maps machine instruction index ((pc-Start)/InstrBytes)
	// to bytecode index; NoBCI for synthetic instructions. Baseline
	// compilers always produced this; the paper extended the opt
	// compiler to do the same for every instruction.
	BCIndex []int32
	// IRID maps machine instruction index to the ID of the IR
	// instruction it implements (NoBCI when compiled without IR).
	IRID []int32

	// GCPoints is sorted by PC.
	GCPoints []GCPoint

	// Obsolete marks bodies replaced by recompilation. The code and
	// maps remain installed (compiled code lives in the immortal space
	// and is never collected, §4.2), so late samples still resolve.
	Obsolete bool
}

// Contains reports whether pc lies inside this method body.
func (m *MCMap) Contains(pc uint64) bool { return pc >= m.Start && pc < m.End }

// InstrIndex converts a PC inside the body to a machine instruction
// index.
func (m *MCMap) InstrIndex(pc uint64) int {
	return int((pc - m.Start) / cpu.InstrBytes)
}

// BytecodeAt resolves a PC to the bytecode index it implements.
func (m *MCMap) BytecodeAt(pc uint64) (int32, bool) {
	if !m.Contains(pc) {
		return 0, false
	}
	idx := m.InstrIndex(pc)
	if idx >= len(m.BCIndex) {
		return 0, false
	}
	bci := m.BCIndex[idx]
	return bci, bci != NoBCI
}

// IRAt resolves a PC to the IR instruction ID it implements.
func (m *MCMap) IRAt(pc uint64) (int32, bool) {
	if !m.Contains(pc) || m.IRID == nil {
		return 0, false
	}
	idx := m.InstrIndex(pc)
	if idx >= len(m.IRID) {
		return 0, false
	}
	id := m.IRID[idx]
	return id, id != NoBCI
}

// GCPointAt finds the GC point at exactly pc, or nil.
func (m *MCMap) GCPointAt(pc uint64) *GCPoint {
	i := sort.Search(len(m.GCPoints), func(i int) bool { return m.GCPoints[i].PC >= pc })
	if i < len(m.GCPoints) && m.GCPoints[i].PC == pc {
		return &m.GCPoints[i]
	}
	return nil
}

// CodeBytes returns the machine-code size of the body.
func (m *MCMap) CodeBytes() uint64 { return m.End - m.Start }

// GCMapBytes returns the encoded size of the GC maps alone — the
// "GC maps only" column of Table 2.
func (m *MCMap) GCMapBytes() uint64 {
	return perMethodHeader + uint64(len(m.GCPoints))*gcPointBytes
}

// MCMapBytes returns the encoded size of the full per-instruction
// machine-code maps — the "MC maps" column of Table 2 (it subsumes the
// GC maps).
func (m *MCMap) MCMapBytes() uint64 {
	return m.GCMapBytes() + uint64(len(m.BCIndex))*mcEntryBytes
}

// Table is the sorted table of all compiled method bodies, updated on
// every (re)compilation and consulted by the sample collector thread to
// map a raw PC to a method (§4.2).
type Table struct {
	entries []*MCMap // sorted by Start
}

// Register inserts a new method body. Bodies never overlap; Register
// panics on overlap since that indicates a code-installation bug.
func (t *Table) Register(m *MCMap) {
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].Start >= m.Start })
	if i < len(t.entries) && t.entries[i].Start < m.End ||
		i > 0 && t.entries[i-1].End > m.Start {
		panic(fmt.Sprintf("mcmap: overlapping code range [%#x,%#x)", m.Start, m.End))
	}
	t.entries = append(t.entries, nil)
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = m
}

// Lookup resolves a PC to the method body containing it.
func (t *Table) Lookup(pc uint64) (*MCMap, bool) {
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].End > pc })
	if i < len(t.entries) && t.entries[i].Contains(pc) {
		return t.entries[i], true
	}
	return nil, false
}

// Bodies returns all registered bodies in address order.
func (t *Table) Bodies() []*MCMap { return t.entries }

// CurrentBodies returns the non-obsolete body for each method.
func (t *Table) CurrentBodies() []*MCMap {
	var out []*MCMap
	for _, e := range t.entries {
		if !e.Obsolete {
			out = append(out, e)
		}
	}
	return out
}

// SpaceStats aggregates the Table 2 space-overhead columns over a set
// of compiled bodies.
type SpaceStats struct {
	Methods        int
	CodeBytes      uint64
	GCMapBytes     uint64
	MCMapBytes     uint64
	OptMethods     int
	ObsoleteBodies int
}

// Space computes the aggregate space statistics over all bodies.
func (t *Table) Space() SpaceStats {
	var s SpaceStats
	for _, e := range t.entries {
		s.Methods++
		s.CodeBytes += e.CodeBytes()
		s.GCMapBytes += e.GCMapBytes()
		s.MCMapBytes += e.MCMapBytes()
		if e.Opt {
			s.OptMethods++
		}
		if e.Obsolete {
			s.ObsoleteBodies++
		}
	}
	return s
}
