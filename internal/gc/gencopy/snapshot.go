package gencopy

import (
	"hpmvm/internal/gc/heap"
	"hpmvm/internal/snap"
)

// Snapshot/Restore implement snap.Checkpointable for the GenCopy
// collector: the front half (gen.Heap.Walk), then both semispaces plus
// the active index and the collector's own counters.

const (
	snapComponent = "gc/gencopy"
	snapVersion   = 2
)

// walk is the collector's layout.
func (c *Collector) walk(k *snap.Codec) {
	c.Heap.Walk(k)
	c.semi[0].Walk(k)
	c.semi[1].Walk(k)
	snap.Int(k, &c.active)
	k.Check(c.active == 0 || c.active == 1, "active semispace index %d", c.active)
	k.U64(&c.copiedObjects)
	k.U64(&c.copiedBytes)
}

// Snapshot serializes the collector's mutable state.
func (c *Collector) Snapshot() snap.ComponentState {
	return snap.Encode(snapComponent, snapVersion, c.walk)
}

// Restore overwrites the collector's mutable state. Only the collector
// holds its spaces, so committing swaps in the scratch copies.
func (c *Collector) Restore(st snap.ComponentState) error {
	next := *c
	next.Nursery, next.LOS = snap.Scratch(c.Nursery), snap.Scratch(c.LOS)
	next.semi = [2]*heap.BumpSpace{snap.Scratch(c.semi[0]), snap.Scratch(c.semi[1])}
	if err := snap.Decode(st, snapComponent, snapVersion, next.walk); err != nil {
		return err
	}
	*c = next
	return nil
}
