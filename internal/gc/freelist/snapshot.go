package freelist

import "hpmvm/internal/snap"

// Walk is the allocator's snapshot layout, composed by the owning
// collector (genms) into its own; it decodes into the receiver, so a
// Restore hands it a scratch copy. Order is load-bearing: the per-class
// free lists and the empty-block pool are stacks whose pop order
// decides future object placement, so both travel in their exact slice
// order. The blocks and allocated maps travel in sorted key order.
func (a *Allocator) Walk(c *snap.Codec) {
	c.Same(a.base, "free-list allocator base")
	c.Same(a.limit, "free-list allocator limit")
	c.U64(&a.cursor)
	for cls := range a.free {
		snap.Slice(c, &a.free[cls], (*snap.Codec).U64)
	}
	snap.MapPtr(c, &a.blocks, func(c *snap.Codec, base *uint64, b *block) {
		c.U64(&b.base)
		snap.Int(c, &b.class)
		snap.Int(c, &b.cells)
		snap.Int(c, &b.live)
		*base = b.base
	})
	snap.Slice(c, &a.freeBlocks, (*snap.Codec).U64)
	snap.Map(c, &a.allocated, snap.Pair((*snap.Codec).U64, snap.Int[int]))
	c.U64(&a.bytesRequested)
	c.U64(&a.bytesAllocated)
	c.U64(&a.liveCells)
	c.U64(&a.usedBytes)
	c.U64(&a.blockBytes)
}
