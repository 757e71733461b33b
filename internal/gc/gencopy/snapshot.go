package gencopy

import (
	"fmt"

	"hpmvm/internal/snap"
)

// Snapshot/Restore implement snap.Checkpointable for the GenCopy
// collector: nursery, both semispaces plus the active index, the LOS,
// the remembered set (in insertion order) and the counters.

const (
	snapComponent = "gc/gencopy"
	snapVersion   = 1
)

// Snapshot serializes the collector's mutable state.
func (c *Collector) Snapshot() snap.ComponentState {
	var w snap.Writer
	c.nursery.Encode(&w)
	c.semi[0].Encode(&w)
	c.semi[1].Encode(&w)
	w.I64(int64(c.active))
	c.los.Encode(&w)
	w.U64(uint64(len(c.remset)))
	for _, slot := range c.remset {
		w.U64(slot)
	}
	st := c.stats
	w.U64(st.MinorGCs)
	w.U64(st.MajorGCs)
	w.U64(st.PromotedObjects)
	w.U64(st.PromotedBytes)
	w.U64(st.CopiedObjects)
	w.U64(st.CopiedBytes)
	w.U64(st.GCCycles)
	w.U64(st.BarrierRecords)
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
	if err := c.semi[0].Decode(r); err != nil {
		return err
	}
	if err := c.semi[1].Decode(r); err != nil {
		return err
	}
	active := int(r.I64())
	if r.Err() == nil && active != 0 && active != 1 {
		return fmt.Errorf("gencopy: %w: active semispace index %d", snap.ErrDecode, active)
	}
	if err := c.los.Decode(r); err != nil {
		return err
	}
	nRem := r.Count(8)
	remset := make([]uint64, 0, nRem)
	for i := 0; i < nRem; i++ {
		remset = append(remset, r.U64())
	}
	var stats Stats
	stats.MinorGCs = r.U64()
	stats.MajorGCs = r.U64()
	stats.PromotedObjects = r.U64()
	stats.PromotedBytes = r.U64()
	stats.CopiedObjects = r.U64()
	stats.CopiedBytes = r.U64()
	stats.GCCycles = r.U64()
	stats.BarrierRecords = r.U64()
	if err := r.Close(); err != nil {
		return err
	}
	c.active = active
	c.remset = remset
	c.stats = stats
	c.queue = c.queue[:0]
	return nil
}
