package pebs

import "hpmvm/internal/snap"

// Snapshot/Restore implement snap.Checkpointable for the sampling
// unit. The programmed Config is mutable state here (the kernel module
// programs it mid-run via Configure/SetInterval), so it is serialized
// alongside the countdown, buffer and counters. The RNG that drives
// interval randomization is owned by core and checkpointed there as a
// draw count; Restore leaves u.rng untouched.

const (
	snapComponent = "hw/pebs"
	snapVersion   = 1
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

// WalkConfig walks a programmed Config.
func WalkConfig(c *snap.Codec, cfg *Config) {
	snap.Int(c, &cfg.Event)
	c.U64(&cfg.Interval)
	snap.Int(c, &cfg.RandomBits)
	snap.Int(c, &cfg.BufferSamples)
	c.F64(&cfg.WatermarkFrac)
	c.U64(&cfg.CaptureCycles)
	c.U64(&cfg.InterruptCycles)
}

// walk is the unit's layout: programmed configuration, countdown,
// buffered samples and counters.
func (u *Unit) walk(c *snap.Codec) {
	WalkConfig(c, &u.cfg)
	c.Bool(&u.enabled)
	c.U64(&u.countdown)
	snap.Slice(c, &u.buf, WalkSample)
	c.Check(u.cfg.BufferSamples <= 0 || len(u.buf) <= u.cfg.BufferSamples,
		"%d buffered samples exceed capacity %d", len(u.buf), u.cfg.BufferSamples)
	snap.Int(c, &u.watermark)
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
