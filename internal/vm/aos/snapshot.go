package aos

import "hpmvm/internal/snap"

// Snapshot/Restore implement snap.Checkpointable for the adaptive
// optimization system: the sampler deadline, the per-method sample and
// level tables, the recorded plan, and the recompilation counters.

const (
	snapComponent = "vm/aos"
	snapVersion   = 1
)

// walk is the AOS's layout.
func (a *AOS) walk(c *snap.Codec) {
	c.U64(&a.deadline)
	snap.Map(c, &a.samples, snap.Pair(snap.Int[int], (*snap.Codec).U64))
	snap.Map(c, &a.level, snap.Pair(snap.Int[int], snap.Int[int]))
	snap.Map(c, (*map[int]int)(&a.plan), snap.Pair(snap.Int[int], snap.Int[int]))
	c.U64(&a.recompilations)
	c.U64(&a.compileCycles)
}

// Snapshot serializes the AOS's mutable state.
func (a *AOS) Snapshot() snap.ComponentState {
	return snap.Encode(snapComponent, snapVersion, a.walk)
}

// Restore overwrites the AOS's mutable state. Pair with Reattach on a
// restored system: Attach would reset the sampler deadline, destroying
// the restored value.
func (a *AOS) Restore(st snap.ComponentState) error {
	next := *a
	if err := snap.Decode(st, snapComponent, snapVersion, next.walk); err != nil {
		return err
	}
	*a = next
	return nil
}

// Reattach registers the AOS sampler with the VM without resetting the
// restored deadline (Attach computes a fresh one).
func (a *AOS) Reattach() {
	a.vm.AddTicker(a)
}
