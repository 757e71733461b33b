package genms

import "hpmvm/internal/snap"

// Snapshot/Restore implement snap.Checkpointable for the GenMS
// collector: the front half (gen.Heap.Walk), then the free-list mature
// space, the co-allocation pair table and classification ranges, and
// the collector's own counters. The VM/advisor/observer wiring is
// construction-time.

const (
	snapComponent = "gc/genms"
	snapVersion   = 3
)

// walk is the collector's layout.
func (c *Collector) walk(k *snap.Codec) {
	c.Heap.Walk(k)
	c.mature.Walk(k)
	snap.Map(k, &c.pairs, snap.Pair((*snap.Codec).U64, (*snap.Codec).U64))
	snap.Slice(k, &c.ranges, func(k *snap.Codec, rg *pairRange) {
		k.U64(&rg.start)
		k.U64(&rg.end)
		k.Bool(&rg.gapped)
	})
	k.Bool(&c.rangesDirty)
	k.U64(&c.coallocPairs)
	k.U64(&c.coallocBytes)
	k.U64(&c.sweptCells)
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
