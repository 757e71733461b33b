package genms

import "hpmvm/internal/snap"

// Snapshot/Restore implement snap.Checkpointable for the GenMS
// collector: the three spaces it owns, the remembered set (in
// insertion order — its scan order at the next minor GC), the
// co-allocation pair table and classification ranges, and the
// counters. The VM/advisor/observer wiring is construction-time.

const (
	snapComponent = "gc/genms"
	snapVersion   = 1
)

// walk is the collector's layout.
func (c *Collector) walk(k *snap.Codec) {
	c.nursery.Walk(k)
	c.mature.Walk(k)
	c.los.Walk(k)
	snap.Slice(k, &c.remset, (*snap.Codec).U64)
	snap.Map(k, &c.pairs, snap.Pair((*snap.Codec).U64, (*snap.Codec).U64))
	snap.Slice(k, &c.ranges, func(k *snap.Codec, rg *pairRange) {
		k.U64(&rg.start)
		k.U64(&rg.end)
		k.Bool(&rg.gapped)
	})
	k.Bool(&c.rangesDirty)
	st := &c.stats
	k.U64(&st.MinorGCs)
	k.U64(&st.MajorGCs)
	k.U64(&st.PromotedObjects)
	k.U64(&st.PromotedBytes)
	k.U64(&st.CoallocPairs)
	k.U64(&st.CoallocBytes)
	k.U64(&st.SweptCells)
	k.U64(&st.GCCycles)
	k.U64(&st.BarrierRecords)
	k.F64(&st.Fragmentation)
}

// Snapshot serializes the collector's mutable state.
func (c *Collector) Snapshot() snap.ComponentState {
	return snap.Encode(snapComponent, snapVersion, c.walk)
}

// Restore overwrites the collector's mutable state. Only the collector
// holds its spaces, so committing swaps in the scratch copies.
func (c *Collector) Restore(st snap.ComponentState) error {
	next := *c
	next.nursery, next.mature, next.los = snap.Scratch(c.nursery), snap.Scratch(c.mature), snap.Scratch(c.los)
	if err := snap.Decode(st, snapComponent, snapVersion, next.walk); err != nil {
		return err
	}
	next.queue = c.queue[:0]
	*c = next
	return nil
}
