package perfmon

import (
	"hpmvm/internal/hw/pebs"
	"hpmvm/internal/snap"
)

// Snapshot/Restore implement snap.Checkpointable for the kernel
// module. Mutable state is the in-kernel sample buffer and the session
// counters; the unit/sink/observer wiring is construction-time and
// untouched. The programmed session lives in the pebs.Unit it owns, a
// separate component checkpointed by core.

const (
	snapComponent = "kernel/perfmon"
	snapVersion   = 2
)

// walk is the session state's layout.
func (m *Module) walk(c *snap.Codec) {
	snap.Slice(c, &m.buf, pebs.WalkSample)
	c.Check(len(m.buf) <= kernelBufferSamples,
		"%d buffered samples exceed the kernel buffer's %d", len(m.buf), kernelBufferSamples)
	c.U64(&m.lost)
	c.U64(&m.reads)
}

// Snapshot serializes the session state.
func (m *Module) Snapshot() snap.ComponentState {
	return snap.Encode(snapComponent, snapVersion, m.walk)
}

// Restore overwrites the session state. No syscall cycles are charged:
// restore recreates state, it does not re-execute the calls that built
// it.
func (m *Module) Restore(st snap.ComponentState) error {
	next := *m
	if err := snap.Decode(st, snapComponent, snapVersion, next.walk); err != nil {
		return err
	}
	*m = next
	return nil
}
