package freelist

import (
	"fmt"
	"sort"

	"hpmvm/internal/snap"
)

// Snapshot encoding helpers for the segregated free-list allocator,
// composed by the owning collector (genms) into its ComponentState.
// Order is load-bearing: the per-class free lists and the empty-block
// pool are stacks whose pop order decides future object placement, so
// both are serialized in their exact slice order. The blocks and
// allocated maps are serialized in sorted key order.

// Encode appends the allocator's mutable state to w.
func (a *Allocator) Encode(w *snap.Writer) {
	w.U64(a.base)
	w.U64(a.limit)
	w.U64(a.cursor)
	for cls := range a.free {
		w.U64(uint64(len(a.free[cls])))
		for _, cell := range a.free[cls] {
			w.U64(cell)
		}
	}
	bases := make([]uint64, 0, len(a.blocks))
	for base := range a.blocks {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	w.U64(uint64(len(bases)))
	for _, base := range bases {
		b := a.blocks[base]
		w.U64(b.base)
		w.I64(int64(b.class))
		w.I64(int64(b.cells))
		w.I64(int64(b.live))
	}
	w.U64(uint64(len(a.freeBlocks)))
	for _, base := range a.freeBlocks {
		w.U64(base)
	}
	addrs := make([]uint64, 0, len(a.allocated))
	for addr := range a.allocated {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.U64(uint64(len(addrs)))
	for _, addr := range addrs {
		w.U64(addr)
		w.I64(int64(a.allocated[addr]))
	}
	w.U64(a.bytesRequested)
	w.U64(a.bytesAllocated)
	w.U64(a.liveCells)
	w.U64(a.usedBytes)
	w.U64(a.blockBytes)
}

// Decode restores the allocator's mutable state from r, verifying the
// snapshot covers the same region.
func (a *Allocator) Decode(r *snap.Reader) error {
	base := r.U64()
	limit := r.U64()
	if r.Err() == nil && (base != a.base || limit != a.limit) {
		return fmt.Errorf("freelist: %w: allocator covers [%#x,%#x), snapshot covers [%#x,%#x)",
			snap.ErrDecode, a.base, a.limit, base, limit)
	}
	cursor := r.U64()
	var free [NumClasses][]uint64
	for cls := range free {
		n := r.Count(8)
		free[cls] = make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			free[cls] = append(free[cls], r.U64())
		}
	}
	nBlocks := r.Count(32)
	blocks := make(map[uint64]*block, nBlocks)
	for i := 0; i < nBlocks; i++ {
		b := &block{}
		b.base = r.U64()
		b.class = int(r.I64())
		b.cells = int(r.I64())
		b.live = int(r.I64())
		blocks[b.base] = b
	}
	nFreeBlocks := r.Count(8)
	freeBlocks := make([]uint64, 0, nFreeBlocks)
	for i := 0; i < nFreeBlocks; i++ {
		freeBlocks = append(freeBlocks, r.U64())
	}
	nAlloc := r.Count(16)
	allocated := make(map[uint64]int, nAlloc)
	for i := 0; i < nAlloc; i++ {
		addr := r.U64()
		allocated[addr] = int(r.I64())
	}
	bytesRequested := r.U64()
	bytesAllocated := r.U64()
	liveCells := r.U64()
	usedBytes := r.U64()
	blockBytes := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	a.cursor = cursor
	a.free = free
	a.blocks = blocks
	a.freeBlocks = freeBlocks
	a.allocated = allocated
	a.bytesRequested = bytesRequested
	a.bytesAllocated = bytesAllocated
	a.liveCells = liveCells
	a.usedBytes = usedBytes
	a.blockBytes = blockBytes
	return nil
}
