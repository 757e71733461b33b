package perfmon

import (
	"hpmvm/internal/hw/pebs"
	"hpmvm/internal/snap"
)

// Snapshot/Restore implement snap.Checkpointable for the kernel
// module. Mutable state is the programmed session config, the in-kernel
// sample buffer and the session counters; the unit/sink/observer wiring
// is construction-time and untouched. The pebs.Unit it owns is a
// separate component checkpointed by core.

const (
	snapComponent = "kernel/perfmon"
	snapVersion   = 1
)

// Snapshot serializes the session state.
func (m *Module) Snapshot() snap.ComponentState {
	var w snap.Writer
	pebs.EncodeConfig(&w, m.pcfg)
	w.U64(uint64(len(m.buf)))
	for i := range m.buf {
		pebs.EncodeSample(&w, &m.buf[i])
	}
	w.U64(m.lost)
	w.U64(m.reads)
	w.Bool(m.active)
	return snap.ComponentState{Component: snapComponent, Version: snapVersion, Data: w.Bytes()}
}

// Restore overwrites the session state. No syscall cycles are charged:
// restore recreates state, it does not re-execute the calls that built
// it.
func (m *Module) Restore(st snap.ComponentState) error {
	if err := snap.Check(st, snapComponent, snapVersion); err != nil {
		return err
	}
	r := snap.NewReader(st.Data)
	pcfg := pebs.DecodeConfig(r)
	n := r.Count(pebs.SampleBytes)
	buf := make([]pebs.Sample, 0, n)
	for i := 0; i < n; i++ {
		buf = append(buf, pebs.DecodeSample(r))
	}
	lost := r.U64()
	reads := r.U64()
	active := r.Bool()
	if err := r.Close(); err != nil {
		return err
	}
	m.pcfg = pcfg
	m.buf = buf
	m.lost = lost
	m.reads = reads
	m.active = active
	return nil
}
