package genms

import "hpmvm/internal/snap"

// Snapshot/Restore implement snap.Checkpointable for the GenMS
// collector: the three spaces it owns, the remembered set (in
// insertion order — its scan order at the next minor GC), the
// co-allocation pair table and classification ranges, and the
// counters. The VM/advisor/observer wiring is construction-time.

const (
	snapComponent = "gc/genms"
	snapVersion   = 2
)

// walk is the collector's layout.
func (c *Collector) walk(k *snap.Codec) {
	c.Nursery.Walk(k)
	c.mature.Walk(k)
	c.LOS.Walk(k)
	snap.Slice(k, &c.Remset, (*snap.Codec).U64)
	snap.Map(k, &c.pairs, snap.Pair((*snap.Codec).U64, (*snap.Codec).U64))
	snap.Slice(k, &c.ranges, func(k *snap.Codec, rg *pairRange) {
		k.U64(&rg.start)
		k.U64(&rg.end)
		k.Bool(&rg.gapped)
	})
	k.Bool(&c.rangesDirty)
	k.U64(&c.MinorGCs)
	k.U64(&c.MajorGCs)
	k.U64(&c.PromotedObjects)
	k.U64(&c.PromotedBytes)
	k.U64(&c.coallocPairs)
	k.U64(&c.coallocBytes)
	k.U64(&c.sweptCells)
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
	next.Nursery, next.mature, next.LOS = snap.Scratch(c.Nursery), snap.Scratch(c.mature), snap.Scratch(c.LOS)
	if err := snap.Decode(st, snapComponent, snapVersion, next.walk); err != nil {
		return err
	}
	*c = next
	return nil
}
