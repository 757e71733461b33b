package gencopy

import (
	"hpmvm/internal/gc/heap"
	"hpmvm/internal/snap"
)

// Snapshot/Restore implement snap.Checkpointable for the GenCopy
// collector: nursery, both semispaces plus the active index, the LOS,
// the remembered set (in insertion order) and the counters.

const (
	snapComponent = "gc/gencopy"
	snapVersion   = 1
)

// walk is the collector's layout.
func (c *Collector) walk(k *snap.Codec) {
	c.Nursery.Walk(k)
	c.semi[0].Walk(k)
	c.semi[1].Walk(k)
	snap.Int(k, &c.active)
	k.Check(c.active == 0 || c.active == 1, "active semispace index %d", c.active)
	c.LOS.Walk(k)
	snap.Slice(k, &c.Remset, (*snap.Codec).U64)
	k.U64(&c.MinorGCs)
	k.U64(&c.MajorGCs)
	k.U64(&c.PromotedObjects)
	k.U64(&c.PromotedBytes)
	k.U64(&c.copiedObjects)
	k.U64(&c.copiedBytes)
	k.U64(&c.GCCycles)
	k.U64(&c.BarrierRecords)
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
