package cpu

import "hpmvm/internal/snap"

// Snapshot/Restore implement snap.Checkpointable for the core. Mutable
// state is the register file (the GPRs, then SP and FP), the
// cycle/instret counters and the halt/privilege flags. A restored zero
// register must read 0. The code space is deliberately *not*
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
	r := c.file()
	for i := range r {
		k.U64(&r[i])
	}
	k.Check(r[RegZero] == 0, "the zero register holds %#x", r[RegZero])
	k.U64(&c.PC)
	k.U64(&c.cycles)
	k.U64(&c.instret)
	// The halt bit travels as the bool it always was; a pending Yield
	// is not state (the next run loop clears it) and is left as found.
	halted := c.Halted()
	k.Bool(&halted)
	if halted {
		c.stop |= stopHalted
	} else {
		c.stop &^= stopHalted
	}
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
