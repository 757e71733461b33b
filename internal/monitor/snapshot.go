package monitor

import (
	"hpmvm/internal/snap"
	"hpmvm/internal/stats"
	"hpmvm/internal/vm/classfile"
)

// Snapshot/Restore implement snap.Checkpointable for the collector
// thread: the poll schedule, the per-field and per-method counter
// tables (with their time series), the phase-event log, the adaptive
// controller state and the activity counters. Field and method
// pointers are serialized as universe IDs and re-resolved on restore;
// the pairsByMethod cache is dropped and rebuilt lazily (its contents
// are a deterministic function of the compiled code).

const (
	snapComponent = "monitor"
	snapVersion   = 1
)

func walkSeries(c *snap.Codec, s *stats.Series) {
	snap.Slice(c, &s.Samples, func(c *snap.Codec, sm *stats.Sample) {
		c.U64(&sm.Time)
		c.F64(&sm.Value)
	})
}

// walk is the monitor's layout. Decoding resolves field and method ids
// in the VM's universe (they do resolve whenever the restored system
// was booted from the same workload).
func (m *Monitor) walk(c *snap.Codec) {
	u := m.vm.U
	c.U64(&m.deadline)
	c.U64(&m.pollGap)
	snap.MapPtr(c, &m.fields, func(c *snap.Codec, id *int, fc *FieldCounter) {
		snap.Int(c, id)
		c.U64(&fc.Samples)
		c.U64(&fc.EstimatedMisses)
		walkSeries(c, &fc.Series)
		walkSeries(c, &fc.RateSeries)
		c.U64(&fc.AdjacentSamples)
		c.U64(&fc.GappedSamples)
		c.U64(&fc.periodSamples)
		c.U64(&fc.periodWeight)
		c.F64(&fc.prevWindowRate)
		if c.Check(*id >= 0 && *id < len(u.Fields()), "field id %d not in universe", *id) {
			fc.Field = u.Field(*id)
			fc.Series.Name = fc.Field.QualifiedName()
			fc.RateSeries.Name = fc.Field.QualifiedName() + ".rate"
		}
	})
	byIndex := snap.Pair(snap.Int[int32], (*snap.Codec).U64)
	snap.MapPtr(c, &m.methods, func(c *snap.Codec, id *int, mc *MethodCounter) {
		snap.Int(c, id)
		c.U64(&mc.Samples)
		snap.Map(c, &mc.ByBCI, byIndex)
		snap.Map(c, &mc.ByIR, byIndex)
		if c.Check(*id >= 0 && *id < len(u.Methods()), "method id %d not in universe", *id) {
			mc.Method = u.Method(*id)
		}
	})
	snap.Slice(c, &m.phaseEvents, (*snap.Codec).String)
	c.U64(&m.lastAutoCycles)
	c.U64(&m.lastAutoEvents)
	st := &m.st
	c.U64(&st.Polls)
	c.U64(&st.SamplesRead)
	c.U64(&st.SamplesDecoded)
	c.U64(&st.SamplesDropped)
	c.U64(&st.FieldsAttributed)
	c.U64(&st.MonitorCycles)
	c.U64(&st.SamplesNursery)
	c.U64(&st.SamplesMature)
	c.U64(&st.SamplesLOS)
	c.U64(&st.SamplesImmortal)
	c.U64(&st.SamplesOther)
	c.U64(&m.lastFlush)
}

// Snapshot serializes the monitor's mutable state.
func (m *Monitor) Snapshot() snap.ComponentState {
	return snap.Encode(snapComponent, snapVersion, m.walk)
}

// Restore overwrites the monitor's mutable state. Pair with Reattach on
// a restored system — Attach would reset the poll deadline.
func (m *Monitor) Restore(st snap.ComponentState) error {
	next := *m
	if err := snap.Decode(st, snapComponent, snapVersion, next.walk); err != nil {
		return err
	}
	next.pairsByMethod = make(map[int]map[int32]*classfile.Field)
	*m = next
	return nil
}

// Reattach registers the monitor with the VM's ticker loop without
// resetting the restored poll deadline (Attach computes a fresh one).
func (m *Monitor) Reattach() {
	m.vm.AddTicker(m)
}

// Universe exposes the VM's class universe so policies layered on the
// monitor (coalloc) can re-resolve field IDs during their own Restore.
func (m *Monitor) Universe() *classfile.Universe { return m.vm.U }
