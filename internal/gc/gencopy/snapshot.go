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
	c.nursery.Walk(k)
	c.semi[0].Walk(k)
	c.semi[1].Walk(k)
	snap.Int(k, &c.active)
	k.Check(c.active == 0 || c.active == 1, "active semispace index %d", c.active)
	c.los.Walk(k)
	snap.Slice(k, &c.remset, (*snap.Codec).U64)
	st := &c.stats
	k.U64(&st.MinorGCs)
	k.U64(&st.MajorGCs)
	k.U64(&st.PromotedObjects)
	k.U64(&st.PromotedBytes)
	k.U64(&st.CopiedObjects)
	k.U64(&st.CopiedBytes)
	k.U64(&st.GCCycles)
	k.U64(&st.BarrierRecords)
}

// Snapshot serializes the collector's mutable state.
func (c *Collector) Snapshot() snap.ComponentState {
	return snap.Encode(snapComponent, snapVersion, c.walk)
}

// Restore overwrites the collector's mutable state. Only the collector
// holds its spaces, so committing swaps in the scratch copies.
func (c *Collector) Restore(st snap.ComponentState) error {
	next := *c
	next.nursery, next.los = snap.Scratch(c.nursery), snap.Scratch(c.los)
	next.semi = [2]*heap.BumpSpace{snap.Scratch(c.semi[0]), snap.Scratch(c.semi[1])}
	if err := snap.Decode(st, snapComponent, snapVersion, next.walk); err != nil {
		return err
	}
	next.queue = c.queue[:0]
	*c = next
	return nil
}
