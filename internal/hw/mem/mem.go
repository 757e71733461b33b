// Package mem implements the simulated flat physical address space that
// backs the whole execution platform: compiled code, VM stacks, and the
// garbage-collected heap all live at addresses in this space.
//
// The space is sparse: 64 KB pages below DirectoryEnd are materialized
// on first touch. Every load and store is bounds- and alignment-checked
// so that wild pointers generated by a buggy compiler or collector —
// null, unaligned, or at or beyond DirectoryEnd — fail fast instead of
// silently corrupting the simulation.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageBits is the log2 of the backing page size. Backing pages are an
// implementation detail of the sparse memory and are unrelated to the
// 4 KB virtual pages the DTLB models.
const PageBits = 16

// PageSize is the size in bytes of one backing page.
const PageSize = 1 << PageBits

const pageMask = PageSize - 1

// Addr is an address in the simulated physical address space.
type Addr = uint64

// DirectoryEnd bounds the address space: the simulated machine's whole
// layout (code, stacks and every heap space, topping out at
// heap.LOSEnd) lies below it, so every load and store a correct program
// issues is one indexed load away from its backing page, and one at or
// beyond it faults.
const DirectoryEnd Addr = 0x6000_0000

const dirPages = DirectoryEnd >> PageBits

// Memory is a sparse, demand-paged flat address space.
type Memory struct {
	// dir holds the materialized pages, indexed by page number. Pages
	// are never unmapped: an entry, once set, stays until Restore
	// replaces the directory wholesale.
	dir *[dirPages]*[PageSize]byte
	// touched counts pages materialized, for footprint reporting.
	touched int
}

// New returns an empty address space.
func New() *Memory {
	return &Memory{dir: new([dirPages]*[PageSize]byte)}
}

// FootprintBytes returns the number of bytes of backing store
// materialized so far.
func (m *Memory) FootprintBytes() uint64 {
	return uint64(m.touched) * PageSize
}

func (m *Memory) page(addr Addr) *[PageSize]byte {
	key := addr >> PageBits
	if key < dirPages {
		if p := m.dir[key]; p != nil {
			return p
		}
	}
	return m.materialize(addr)
}

// materialize is page's slow path: the first touch of a page, or a
// fault beyond the directory.
func (m *Memory) materialize(addr Addr) *[PageSize]byte {
	key := addr >> PageBits
	if key >= dirPages {
		panic(fmt.Sprintf("mem: access at %#x beyond DirectoryEnd %#x", addr, DirectoryEnd))
	}
	p := new([PageSize]byte)
	m.touched++
	m.dir[key] = p
	return p
}

// checkAlign is one combined test so that it inlines into every load
// and store; which rule was broken is worked out on the way to the panic.
func (m *Memory) checkAlign(addr Addr, size uint64) {
	if addr == 0 || addr&(size-1) != 0 {
		alignFault(addr, size)
	}
}

func alignFault(addr Addr, size uint64) {
	if addr == 0 {
		panic(fmt.Sprintf("mem: null dereference (size %d)", size))
	}
	panic(fmt.Sprintf("mem: unaligned %d-byte access at %#x", size, addr))
}

// Read8 loads an unsigned 64-bit word. addr must be 8-byte aligned.
func (m *Memory) Read8(addr Addr) uint64 {
	m.checkAlign(addr, 8)
	p := m.page(addr)
	off := addr & pageMask
	return binary.LittleEndian.Uint64(p[off : off+8])
}

// Read4 loads an unsigned 32-bit word. addr must be 4-byte aligned.
func (m *Memory) Read4(addr Addr) uint32 {
	m.checkAlign(addr, 4)
	p := m.page(addr)
	off := addr & pageMask
	return binary.LittleEndian.Uint32(p[off : off+4])
}

// Read2 loads an unsigned 16-bit half-word. addr must be 2-byte aligned.
func (m *Memory) Read2(addr Addr) uint16 {
	m.checkAlign(addr, 2)
	p := m.page(addr)
	off := addr & pageMask
	return binary.LittleEndian.Uint16(p[off : off+2])
}

// Read1 loads one byte.
func (m *Memory) Read1(addr Addr) uint8 {
	if addr == 0 {
		panic("mem: null dereference (size 1)")
	}
	return m.page(addr)[addr&pageMask]
}

// Write8 stores an unsigned 64-bit word. addr must be 8-byte aligned.
func (m *Memory) Write8(addr Addr, v uint64) {
	m.checkAlign(addr, 8)
	p := m.page(addr)
	off := addr & pageMask
	binary.LittleEndian.PutUint64(p[off:off+8], v)
}

// Write4 stores an unsigned 32-bit word. addr must be 4-byte aligned.
func (m *Memory) Write4(addr Addr, v uint32) {
	m.checkAlign(addr, 4)
	p := m.page(addr)
	off := addr & pageMask
	binary.LittleEndian.PutUint32(p[off:off+4], v)
}

// Write2 stores an unsigned 16-bit half-word. addr must be 2-byte aligned.
func (m *Memory) Write2(addr Addr, v uint16) {
	m.checkAlign(addr, 2)
	p := m.page(addr)
	off := addr & pageMask
	binary.LittleEndian.PutUint16(p[off:off+2], v)
}

// Write1 stores one byte.
func (m *Memory) Write1(addr Addr, v uint8) {
	if addr == 0 {
		panic("mem: null dereference (size 1)")
	}
	m.page(addr)[addr&pageMask] = v
}

// Zero clears n bytes starting at addr.
func (m *Memory) Zero(addr Addr, n uint64) {
	for n > 0 {
		p := m.page(addr)
		off := addr & pageMask
		chunk := uint64(PageSize) - off
		if chunk > n {
			chunk = n
		}
		clear(p[off : off+chunk])
		addr += chunk
		n -= chunk
	}
}
