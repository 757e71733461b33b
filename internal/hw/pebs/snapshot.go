package pebs

import "hpmvm/internal/snap"

// Snapshot/Restore implement snap.Checkpointable for the sampling
// unit. The programmed event and interval are mutable state here (the
// kernel module programs them mid-run via Configure/SetInterval), so
// they are serialized alongside the countdown, buffer and counters; the
// rest of the operating point is package constants. The RNG that drives
// interval randomization is owned by core and checkpointed there as a
// draw count; Restore leaves u.rng untouched.

const (
	snapComponent = "hw/pebs"
	snapVersion   = 2
)

// WalkSample walks one sample record. Shared with the kernel module,
// which buffers the same Sample type.
func WalkSample(c *snap.Codec, s *Sample) {
	c.U64(&s.PC)
	c.U64(&s.DataAddr)
	for i := range s.Regs {
		c.U64(&s.Regs[i])
	}
	c.U64(&s.Cycle)
	snap.Int(c, &s.Event)
}

// walk is the unit's layout: programmed event and interval, countdown,
// buffered samples and counters.
func (u *Unit) walk(c *snap.Codec) {
	snap.Int(c, &u.cfg.Event)
	c.U64(&u.cfg.Interval)
	c.Bool(&u.enabled)
	c.U64(&u.countdown)
	snap.Slice(c, &u.buf, WalkSample)
	c.Check(len(u.buf) <= bufferSamples,
		"%d buffered samples exceed capacity %d", len(u.buf), bufferSamples)
	c.U64(&u.eventsSeen)
	c.U64(&u.samplesTaken)
	c.U64(&u.dropped)
	c.U64(&u.interrupts)
}

// Snapshot serializes the unit's programmed state.
func (u *Unit) Snapshot() snap.ComponentState {
	return snap.Encode(snapComponent, snapVersion, u.walk)
}

// Restore overwrites the unit's programmed state. The CPU, handler,
// observer and RNG wiring is untouched.
func (u *Unit) Restore(st snap.ComponentState) error {
	next := *u
	if err := snap.Decode(st, snapComponent, snapVersion, next.walk); err != nil {
		return err
	}
	*u = next
	return nil
}
