// Package freelist implements the mark-sweep mature-space allocator:
// a segregated free-list over 40 size classes up to 4 KB (the VM
// default the paper uses, §5.1), carving fixed-size cells out of
// 64 KB blocks. Objects larger than the biggest size class belong in
// the large-object space.
//
// Co-allocation (§5.4) asks this allocator for a single cell big
// enough to hold a parent object and its hottest child back to back;
// the cell is drawn from the appropriate (larger) size class, which is
// exactly the internal-fragmentation trade-off the paper discusses.
package freelist

import (
	"fmt"
	"sort"
)

// NumClasses is the number of size classes (paper: 40).
const NumClasses = 40

// MaxCellSize is the largest cell the free list serves (paper: 4 KB).
const MaxCellSize = 4096

// BlockSize is the granularity at which the allocator carves memory
// out of the mature region.
const BlockSize = 65536

// sizeClasses lists the cell sizes: 16..256 in steps of 16, 320..1024
// in steps of 64, 1280..4096 in steps of 256 — 40 classes total.
var sizeClasses = buildSizeClasses()

func buildSizeClasses() [NumClasses]uint64 {
	var cs [NumClasses]uint64
	i := 0
	for sz := uint64(16); sz <= 256; sz += 16 {
		cs[i] = sz
		i++
	}
	for sz := uint64(320); sz <= 1024; sz += 64 {
		cs[i] = sz
		i++
	}
	for sz := uint64(1280); sz <= 4096; sz += 256 {
		cs[i] = sz
		i++
	}
	if i != NumClasses {
		panic(fmt.Sprintf("freelist: built %d size classes, want %d", i, NumClasses))
	}
	return cs
}

// SizeClassFor returns the index of the smallest size class holding
// size bytes, and whether one exists (false means LOS).
func SizeClassFor(size uint64) (int, bool) {
	if size > MaxCellSize {
		return 0, false
	}
	// Binary search over the 40 entries is overkill; scan regions.
	switch {
	case size <= 256:
		idx := int((size + 15) / 16)
		if idx == 0 {
			idx = 1
		}
		return idx - 1, true
	case size <= 1024:
		return 16 + int((size-256+63)/64) - 1, true
	default:
		return 28 + int((size-1024+255)/256) - 1, true
	}
}

// CellSize returns the byte size of cells in class idx.
func CellSize(idx int) uint64 { return sizeClasses[idx] }

// block is one 64 KB chunk dedicated to a single size class.
type block struct {
	base  uint64
	class int
	cells int
	live  int
}

// Allocator is the segregated free-list allocator over a contiguous
// mature region.
type Allocator struct {
	base, limit uint64
	cursor      uint64 // next fresh block

	free [NumClasses][]uint64 // free cells per class
	// blocks maps block base -> metadata, for sweeping.
	blocks map[uint64]*block
	// freeBlocks are fully empty blocks returned by ReleaseEmptyBlocks,
	// reusable by any size class.
	freeBlocks []uint64
	// allocated tracks the base address and class of every live cell.
	allocated map[uint64]int

	// Statistics.
	bytesRequested uint64 // sum of requested sizes
	bytesAllocated uint64 // sum of cell sizes handed out
	liveCells      uint64
	usedBytes      uint64 // bytes in cells currently allocated
	blockBytes     uint64 // bytes claimed from the region as blocks
}

// New creates an allocator over [base, limit).
func New(base, limit uint64) *Allocator {
	return &Allocator{
		base: base, limit: limit, cursor: base,
		blocks:    make(map[uint64]*block),
		allocated: make(map[uint64]int),
	}
}

// Alloc returns a cell of at least size bytes, or 0 if the region is
// exhausted. size must fit a size class; callers route larger requests
// to the LOS.
func (a *Allocator) Alloc(size uint64) uint64 {
	cls, ok := SizeClassFor(size)
	if !ok {
		panic(fmt.Sprintf("freelist: allocation of %d bytes exceeds max cell size", size))
	}
	if len(a.free[cls]) == 0 {
		if !a.refill(cls) {
			return 0
		}
	}
	n := len(a.free[cls])
	addr := a.free[cls][n-1]
	a.free[cls] = a.free[cls][:n-1]
	a.allocated[addr] = cls
	a.blocks[addr&^(BlockSize-1)].live++
	cell := sizeClasses[cls]
	a.bytesRequested += size
	a.bytesAllocated += cell
	a.usedBytes += cell
	a.liveCells++
	return addr
}

// refill dedicates a block (recycled or fresh) to class cls.
func (a *Allocator) refill(cls int) bool {
	var base uint64
	if n := len(a.freeBlocks); n > 0 {
		base = a.freeBlocks[n-1]
		a.freeBlocks = a.freeBlocks[:n-1]
	} else {
		if a.cursor+BlockSize > a.limit {
			return false
		}
		base = a.cursor
		a.cursor += BlockSize
	}
	b := &block{base: base, class: cls}
	a.blockBytes += BlockSize
	cell := sizeClasses[cls]
	b.cells = int(BlockSize / cell)
	for i := b.cells - 1; i >= 0; i-- {
		a.free[cls] = append(a.free[cls], b.base+uint64(i)*cell)
	}
	a.blocks[b.base] = b
	return true
}

// CellOf returns the cell base and size class for a live cell address,
// or ok=false if addr is not a live cell base.
func (a *Allocator) CellOf(addr uint64) (cls int, ok bool) {
	cls, ok = a.allocated[addr]
	return cls, ok
}

// Free releases the cell at addr.
func (a *Allocator) Free(addr uint64) {
	cls, ok := a.allocated[addr]
	if !ok {
		panic(fmt.Sprintf("freelist: free of unallocated cell %#x", addr))
	}
	delete(a.allocated, addr)
	a.free[cls] = append(a.free[cls], addr)
	a.blocks[addr&^(BlockSize-1)].live--
	a.usedBytes -= sizeClasses[cls]
	a.liveCells--
}

// Sweep visits every live cell and frees those for which keep returns
// false, then releases fully empty blocks back to the shared block
// pool (so the heap budget actually shrinks after a major collection).
// It returns the number of cells freed.
//
// Cells are visited in address order: the visit order decides both the
// keep-callback order and the order freed cells enter the per-class
// free lists (i.e. the addresses future allocations return), so
// iterating the allocated map directly would leak Go's randomized map
// iteration order into simulated object placement and make whole-run
// cycle counts differ between identical invocations.
func (a *Allocator) Sweep(keep func(addr uint64, cellSize uint64) bool) int {
	live := make([]uint64, 0, len(a.allocated))
	for addr := range a.allocated {
		live = append(live, addr)
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	var freed int
	for _, addr := range live {
		if !keep(addr, sizeClasses[a.allocated[addr]]) {
			a.Free(addr)
			freed++
		}
	}
	a.releaseEmptyBlocks()
	return freed
}

// releaseEmptyBlocks returns blocks with no live cells to the shared
// pool, purging their cells from the per-class free lists. Released
// bases join the pool in address order — the pool is a stack that
// later block claims pop from, so map-ordered release would randomize
// future block placement.
func (a *Allocator) releaseEmptyBlocks() {
	empty := make(map[uint64]bool)
	for base, b := range a.blocks {
		if b.live == 0 {
			empty[base] = true
		}
	}
	if len(empty) == 0 {
		return
	}
	for cls := range a.free {
		kept := a.free[cls][:0]
		for _, cell := range a.free[cls] {
			if !empty[cell&^(BlockSize-1)] {
				kept = append(kept, cell)
			}
		}
		a.free[cls] = kept
	}
	bases := make([]uint64, 0, len(empty))
	for base := range empty {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, base := range bases {
		delete(a.blocks, base)
		a.freeBlocks = append(a.freeBlocks, base)
		a.blockBytes -= BlockSize
	}
}

// Cells returns the base addresses of all live cells (unsorted).
func (a *Allocator) Cells() []uint64 {
	out := make([]uint64, 0, len(a.allocated))
	for addr := range a.allocated {
		out = append(out, addr)
	}
	return out
}

// Stats describes allocator occupancy and fragmentation.
type Stats struct {
	BytesRequested uint64 // application bytes asked for
	BytesAllocated uint64 // cell bytes handed out (>= requested)
	UsedBytes      uint64 // bytes in currently live cells
	BlockBytes     uint64 // bytes claimed from the region
	LiveCells      uint64
}

// InternalFragmentation returns the fraction of handed-out cell bytes
// wasted by size-class rounding.
func (s Stats) InternalFragmentation() float64 {
	if s.BytesAllocated == 0 {
		return 0
	}
	return 1 - float64(s.BytesRequested)/float64(s.BytesAllocated)
}

// Stats returns a snapshot of the allocator statistics.
func (a *Allocator) Stats() Stats {
	return Stats{
		BytesRequested: a.bytesRequested,
		BytesAllocated: a.bytesAllocated,
		UsedBytes:      a.usedBytes,
		BlockBytes:     a.blockBytes,
		LiveCells:      a.liveCells,
	}
}

// UsedBytes returns the bytes in live cells.
func (a *Allocator) UsedBytes() uint64 { return a.usedBytes }

// FootprintBytes returns the bytes claimed from the mature region
// (blocks are never returned).
func (a *Allocator) FootprintBytes() uint64 { return a.blockBytes }
