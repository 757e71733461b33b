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

// Page is one materialized backing page. Its Load* and Store* methods
// do an access of their width at addr's offset in the page; the byte
// layout lives only in them.
type Page [PageSize]byte

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
	dir *[dirPages]*Page
	// touched counts pages materialized, for footprint reporting.
	touched int
}

// New returns an empty address space.
func New() *Memory {
	return &Memory{dir: new([dirPages]*Page)}
}

// FootprintBytes returns the number of bytes of backing store
// materialized so far.
func (m *Memory) FootprintBytes() uint64 {
	return uint64(m.touched) * PageSize
}

// materialize is the slow path of every access of size bytes at addr:
// it faults on a null, unaligned or beyond-the-directory access, and
// otherwise returns addr's page, materializing it on first touch, so
// that the page lane accepts it from now on.
func (m *Memory) materialize(addr Addr, size uint64) *Page {
	if addr == 0 {
		panic(fmt.Sprintf("mem: null dereference (size %d)", size))
	}
	if addr&(size-1) != 0 {
		panic(fmt.Sprintf("mem: unaligned %d-byte access at %#x", size, addr))
	}
	key := addr >> PageBits
	if key >= dirPages {
		panic(fmt.Sprintf("mem: access at %#x beyond DirectoryEnd %#x", addr, DirectoryEnd))
	}
	p := m.dir[key]
	if p == nil {
		p = new(Page)
		m.touched++
		m.dir[key] = p
	}
	return p
}

// --- The page lane -----------------------------------------------------------
//
// Page is the inlinable page lane: it returns the page an access of a
// given width may use, and changes nothing; the Page accessors below
// then do the access. When Page declines, the caller falls back to the
// matching Read* or Write*, which materializes the page or faults. The
// fallback cannot live in the lane: a function that contains a call
// exceeds the compiler's inlining budget, so the lane would become a
// call of its own.

// Page returns the materialized page an access of size bytes at addr
// may use without a fallback, or nil when the access is null,
// unaligned, at or beyond DirectoryEnd or on a page not yet
// materialized.
func (m *Memory) Page(addr Addr, size uint64) *Page {
	key := addr >> PageBits
	if addr == 0 || key >= dirPages || addr&(size-1) != 0 {
		return nil
	}
	return m.dir[key]
}

// Load8 reads the 64-bit word at addr's offset.
func (p *Page) Load8(addr Addr) uint64 {
	off := addr & pageMask
	return binary.LittleEndian.Uint64(p[off : off+8])
}

// Load4 reads the 32-bit word at addr's offset.
func (p *Page) Load4(addr Addr) uint32 {
	off := addr & pageMask
	return binary.LittleEndian.Uint32(p[off : off+4])
}

// Load2 reads the 16-bit half-word at addr's offset.
func (p *Page) Load2(addr Addr) uint16 {
	off := addr & pageMask
	return binary.LittleEndian.Uint16(p[off : off+2])
}

// Load1 reads the byte at addr's offset.
func (p *Page) Load1(addr Addr) uint8 { return p[addr&pageMask] }

// Store8 writes the 64-bit word at addr's offset.
func (p *Page) Store8(addr Addr, v uint64) {
	off := addr & pageMask
	binary.LittleEndian.PutUint64(p[off:off+8], v)
}

// Store4 writes the 32-bit word at addr's offset.
func (p *Page) Store4(addr Addr, v uint32) {
	off := addr & pageMask
	binary.LittleEndian.PutUint32(p[off:off+4], v)
}

// Store2 writes the 16-bit half-word at addr's offset.
func (p *Page) Store2(addr Addr, v uint16) {
	off := addr & pageMask
	binary.LittleEndian.PutUint16(p[off:off+2], v)
}

// Store1 writes the byte at addr's offset.
func (p *Page) Store1(addr Addr, v uint8) { p[addr&pageMask] = v }

// --- Loads and stores -------------------------------------------------------
//
// Read* and Write* are the slow path: materialize checks the access,
// faulting on a wild one, and returns its page, materializing it on
// first touch.

// Read8 loads an unsigned 64-bit word. addr must be 8-byte aligned.
func (m *Memory) Read8(addr Addr) uint64 { return m.materialize(addr, 8).Load8(addr) }

// Read4 loads an unsigned 32-bit word. addr must be 4-byte aligned.
func (m *Memory) Read4(addr Addr) uint32 { return m.materialize(addr, 4).Load4(addr) }

// Read2 loads an unsigned 16-bit half-word. addr must be 2-byte aligned.
func (m *Memory) Read2(addr Addr) uint16 { return m.materialize(addr, 2).Load2(addr) }

// Read1 loads one byte.
func (m *Memory) Read1(addr Addr) uint8 { return m.materialize(addr, 1).Load1(addr) }

// Write8 stores an unsigned 64-bit word. addr must be 8-byte aligned.
func (m *Memory) Write8(addr Addr, v uint64) { m.materialize(addr, 8).Store8(addr, v) }

// Write4 stores an unsigned 32-bit word. addr must be 4-byte aligned.
func (m *Memory) Write4(addr Addr, v uint32) { m.materialize(addr, 4).Store4(addr, v) }

// Write2 stores an unsigned 16-bit half-word. addr must be 2-byte aligned.
func (m *Memory) Write2(addr Addr, v uint16) { m.materialize(addr, 2).Store2(addr, v) }

// Write1 stores one byte.
func (m *Memory) Write1(addr Addr, v uint8) { m.materialize(addr, 1).Store1(addr, v) }

// Zero clears n bytes starting at addr. Like any store it faults at
// address 0, unless it clears nothing.
func (m *Memory) Zero(addr Addr, n uint64) {
	for n > 0 {
		p := m.materialize(addr, 1)
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
