package cpu

import "hpmvm/internal/snap"

// Snapshot/Restore implement snap.Checkpointable for the core. Mutable
// state is the architectural registers, the cycle/instret counters and
// the halt/privilege flags. The code space is deliberately *not*
// serialized: compiled code is rebuilt deterministically by booting a
// fresh system from the same Options (plus replaying the recompilation
// log, see vm/runtime), so the snapshot only records the installed
// instruction count and Restore verifies it as a consistency check.

const (
	snapComponent = "hw/cpu"
	snapVersion   = 1
)

// walk is the architectural state's layout.
func (c *CPU) walk(k *snap.Codec) {
	for i := range c.Regs {
		k.U64(&c.Regs[i])
	}
	k.U64(&c.SP)
	k.U64(&c.FP)
	k.U64(&c.PC)
	k.U64(&c.cycles)
	k.U64(&c.instret)
	k.Bool(&c.halted)
	k.Bool(&c.usermode)
	k.I64(&c.exitStatus)
	// The receiver must hold the same installed code as the origin (same
	// boot, same recompilations).
	k.Same(uint64(len(c.code)), "installed instruction count (boot/recompile divergence)")
	// Opt-in instruction-fetch tail, present exactly when the ifetch
	// hook is installed (same Options on both sides of a restore, so
	// pre-existing snapshots keep their exact bytes).
	if c.ifetch != nil {
		k.U64(&c.lastFetchLine)
	}
}

// Snapshot serializes the architectural state.
func (c *CPU) Snapshot() snap.ComponentState {
	return snap.Encode(snapComponent, snapVersion, c.walk)
}

// Restore overwrites the architectural state; the installed code is
// untouched.
func (c *CPU) Restore(st snap.ComponentState) error {
	next := *c
	if err := snap.Decode(st, snapComponent, snapVersion, next.walk); err != nil {
		return err
	}
	*c = next
	return nil
}
