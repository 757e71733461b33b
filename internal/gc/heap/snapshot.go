package heap

import "hpmvm/internal/snap"

// Snapshot layouts of the heap spaces. The spaces are not standalone
// components — the collectors (and the VM, for the immortal space)
// embed them — so they expose a Walk their owners compose into their
// own. Walk decodes into the receiver: a Restore hands it a scratch
// copy (snap.Scratch), never the live space.

// Walk is the space's layout: the region bounds (layout constants both
// sides must agree on), soft limit, cursor and allocation count.
func (s *BumpSpace) Walk(c *snap.Codec) {
	c.Same(s.Base, "space "+s.Name+" base")
	c.Same(s.Limit, "space "+s.Name+" limit")
	c.U64(&s.soft)
	c.U64(&s.cursor)
	c.U64(&s.Allocations)
	c.Check(s.soft >= s.Base && s.soft <= s.Limit && s.cursor >= s.Base && s.cursor <= s.soft,
		"space %s cursor/soft out of range", s.Name)
}

// Walk is the LOS's layout: bounds, cursor, the free runs in list order
// (first-fit scans in this order, so it is semantically significant),
// and the live-allocation size table in address order.
func (l *LargeObjectSpace) Walk(c *snap.Codec) {
	c.Same(l.Base, "LOS base")
	c.Same(l.Limit, "LOS limit")
	c.U64(&l.cursor)
	snap.Slice(c, &l.free, func(c *snap.Codec, fr *run) {
		c.U64(&fr.addr)
		c.U64(&fr.size)
	})
	c.U64(&l.used)
	snap.Map(c, &l.sizes, snap.Pair((*snap.Codec).U64, (*snap.Codec).U64))
}
