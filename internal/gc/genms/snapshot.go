package genms

import (
	"sort"

	"hpmvm/internal/snap"
)

// Snapshot/Restore implement snap.Checkpointable for the GenMS
// collector: the three spaces it owns, the remembered set (in
// insertion order — its scan order at the next minor GC), the
// co-allocation pair table and classification ranges, and the
// counters. The VM/advisor/observer wiring is construction-time.

const (
	snapComponent = "gc/genms"
	snapVersion   = 1
)

// Snapshot serializes the collector's mutable state.
func (c *Collector) Snapshot() snap.ComponentState {
	var w snap.Writer
	c.nursery.Encode(&w)
	c.mature.Encode(&w)
	c.los.Encode(&w)
	w.U64(uint64(len(c.remset)))
	for _, slot := range c.remset {
		w.U64(slot)
	}
	parents := make([]uint64, 0, len(c.pairs))
	for p := range c.pairs {
		parents = append(parents, p)
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
	w.U64(uint64(len(parents)))
	for _, p := range parents {
		w.U64(p)
		w.U64(c.pairs[p])
	}
	w.U64(uint64(len(c.ranges)))
	for _, rg := range c.ranges {
		w.U64(rg.start)
		w.U64(rg.end)
		w.Bool(rg.gapped)
	}
	w.Bool(c.rangesDirty)
	st := c.stats
	w.U64(st.MinorGCs)
	w.U64(st.MajorGCs)
	w.U64(st.PromotedObjects)
	w.U64(st.PromotedBytes)
	w.U64(st.CoallocPairs)
	w.U64(st.CoallocBytes)
	w.U64(st.SweptCells)
	w.U64(st.GCCycles)
	w.U64(st.BarrierRecords)
	w.F64(st.Fragmentation)
	return snap.ComponentState{Component: snapComponent, Version: snapVersion, Data: w.Bytes()}
}

// Restore overwrites the collector's mutable state.
func (c *Collector) Restore(st snap.ComponentState) error {
	if err := snap.Check(st, snapComponent, snapVersion); err != nil {
		return err
	}
	r := snap.NewReader(st.Data)
	if err := c.nursery.Decode(r); err != nil {
		return err
	}
	if err := c.mature.Decode(r); err != nil {
		return err
	}
	if err := c.los.Decode(r); err != nil {
		return err
	}
	nRem := r.Count(8)
	remset := make([]uint64, 0, nRem)
	for i := 0; i < nRem; i++ {
		remset = append(remset, r.U64())
	}
	nPairs := r.Count(16)
	pairs := make(map[uint64]uint64, nPairs)
	for i := 0; i < nPairs; i++ {
		p := r.U64()
		pairs[p] = r.U64()
	}
	nRanges := r.Count(17)
	ranges := make([]pairRange, 0, nRanges)
	for i := 0; i < nRanges; i++ {
		var rg pairRange
		rg.start = r.U64()
		rg.end = r.U64()
		rg.gapped = r.Bool()
		ranges = append(ranges, rg)
	}
	rangesDirty := r.Bool()
	var stats Stats
	stats.MinorGCs = r.U64()
	stats.MajorGCs = r.U64()
	stats.PromotedObjects = r.U64()
	stats.PromotedBytes = r.U64()
	stats.CoallocPairs = r.U64()
	stats.CoallocBytes = r.U64()
	stats.SweptCells = r.U64()
	stats.GCCycles = r.U64()
	stats.BarrierRecords = r.U64()
	stats.Fragmentation = r.F64()
	if err := r.Close(); err != nil {
		return err
	}
	c.remset = remset
	c.pairs = pairs
	c.ranges = ranges
	c.rangesDirty = rangesDirty
	c.stats = stats
	c.queue = c.queue[:0]
	return nil
}
