// Package heap manages the VM's memory spaces: the bump-pointer
// nursery, the mature space region handed to a policy-specific
// allocator, the large-object space, and the immortal space that holds
// compiled code support structures, vtables and constant objects
// (§5.1: generational heap with an Appel-style variable-size nursery,
// a mark-and-sweep mature space and a separate large object space).
package heap

import (
	"fmt"
	"sort"
)

// Address-space layout of the simulated machine. Code, the method
// entry table and the vtable map live below the heap (their bases are
// in the CPU config); everything here is VM-managed.
const (
	StackTop = 0x0200_0000 // call stack grows down from here

	ImmortalBase = 0x0400_0000
	ImmortalEnd  = 0x0800_0000

	NurseryBase = 0x1000_0000
	NurseryEnd  = 0x1800_0000 // 128 MB of nursery address space

	MatureBase = 0x2000_0000
	MatureEnd  = 0x4000_0000 // 512 MB of mature address space

	LOSBase = 0x5000_0000
	LOSEnd  = 0x6000_0000 // 256 MB of large-object address space
)

// InNursery reports whether addr lies in the nursery region — the
// write barrier's fast test.
func InNursery(addr uint64) bool { return addr >= NurseryBase && addr < NurseryEnd }

// InMature reports whether addr lies in the mature region.
func InMature(addr uint64) bool { return addr >= MatureBase && addr < MatureEnd }

// InLOS reports whether addr lies in the large-object region.
func InLOS(addr uint64) bool { return addr >= LOSBase && addr < LOSEnd }

// InImmortal reports whether addr lies in the immortal region.
func InImmortal(addr uint64) bool { return addr >= ImmortalBase && addr < ImmortalEnd }

// BumpSpace is a contiguous bump-pointer-allocated space (the nursery,
// the immortal space, and each semispace of the copying mature space).
type BumpSpace struct {
	Name  string
	Base  uint64
	Limit uint64 // hard end of the region
	soft  uint64 // current allocation limit (nursery resizing)

	cursor uint64
	// Allocations counts objects allocated since the last Reset.
	Allocations uint64
}

// NewBumpSpace creates a bump space over [base, limit).
func NewBumpSpace(name string, base, limit uint64) *BumpSpace {
	return &BumpSpace{Name: name, Base: base, Limit: limit, soft: limit, cursor: base}
}

// SetSoftLimit restricts the space to its first n bytes (Appel-style
// nursery sizing). It panics if n exceeds the region.
func (s *BumpSpace) SetSoftLimit(n uint64) {
	if s.Base+n > s.Limit {
		panic(fmt.Sprintf("heap: %s soft limit %d exceeds region", s.Name, n))
	}
	s.soft = s.Base + n
}

// SoftSize returns the currently configured capacity in bytes.
func (s *BumpSpace) SoftSize() uint64 { return s.soft - s.Base }

// Alloc returns the address of a fresh size-byte cell, or 0 when the
// space is exhausted. size must be 8-byte aligned.
func (s *BumpSpace) Alloc(size uint64) uint64 {
	if size%8 != 0 {
		panic(fmt.Sprintf("heap: %s: unaligned allocation of %d bytes", s.Name, size))
	}
	if s.cursor+size > s.soft {
		return 0
	}
	addr := s.cursor
	s.cursor += size
	s.Allocations++
	return addr
}

// Used returns the number of allocated bytes.
func (s *BumpSpace) Used() uint64 { return s.cursor - s.Base }

// Contains reports whether addr was allocated from this space.
func (s *BumpSpace) Contains(addr uint64) bool { return addr >= s.Base && addr < s.cursor }

// Reset empties the space (after an evacuating collection).
func (s *BumpSpace) Reset() {
	s.cursor = s.Base
	s.Allocations = 0
}

// LargeObjectSpace allocates page-granular runs for objects above the
// free-list size-class limit, with a first-fit free list of runs.
type LargeObjectSpace struct {
	Base, Limit uint64
	cursor      uint64
	free        []run // in release order; Alloc first-fits over it
	used        uint64
	// sizes of live allocations, for sweeping and accounting.
	sizes map[uint64]uint64
}

type run struct {
	addr, size uint64
}

// LOSPageSize is the allocation granularity of the large object space.
const LOSPageSize = 4096

// NewLOS creates a large-object space over [base, limit).
func NewLOS(base, limit uint64) *LargeObjectSpace {
	return &LargeObjectSpace{Base: base, Limit: limit, cursor: base, sizes: make(map[uint64]uint64)}
}

// Alloc returns a page-aligned run holding size bytes, or 0 when
// exhausted.
func (l *LargeObjectSpace) Alloc(size uint64) uint64 {
	need := (size + LOSPageSize - 1) &^ (LOSPageSize - 1)
	for i, r := range l.free {
		if r.size >= need {
			addr := r.addr
			if r.size == need {
				l.free = append(l.free[:i], l.free[i+1:]...)
			} else {
				l.free[i] = run{addr: r.addr + need, size: r.size - need}
			}
			l.sizes[addr] = need
			l.used += need
			return addr
		}
	}
	if l.cursor+need > l.Limit {
		return 0
	}
	addr := l.cursor
	l.cursor += need
	l.sizes[addr] = need
	l.used += need
	return addr
}

// Free releases the run starting at addr.
func (l *LargeObjectSpace) Free(addr uint64) {
	size, ok := l.sizes[addr]
	if !ok {
		panic(fmt.Sprintf("heap: LOS free of unallocated %#x", addr))
	}
	delete(l.sizes, addr)
	l.used -= size
	l.free = append(l.free, run{addr: addr, size: size})
}

// Used returns the number of live bytes (page-rounded).
func (l *LargeObjectSpace) Used() uint64 { return l.used }

// Objects returns the addresses of all live large objects in address
// order. A major collection frees dead objects in this order, and Alloc
// first-fits over the free runs in release order, so a map-ordered
// listing would make large-object placement (and with it whole-run
// cycle counts) nondeterministic across identical invocations.
func (l *LargeObjectSpace) Objects() []uint64 {
	out := make([]uint64, 0, len(l.sizes))
	for a := range l.sizes {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Contains reports whether addr is a live large-object base address.
func (l *LargeObjectSpace) Contains(addr uint64) bool {
	_, ok := l.sizes[addr]
	return ok
}
