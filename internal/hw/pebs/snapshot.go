package pebs

import (
	"fmt"

	"hpmvm/internal/hw/cache"
	"hpmvm/internal/snap"
)

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

// SampleBytes is the encoded size of one Sample: PC, data address,
// registers, cycle and event, eight bytes each.
const SampleBytes = (NumRegs + 4) * 8

// EncodeSample appends one sample record to w. Shared with the kernel
// module, which buffers the same Sample type.
func EncodeSample(w *snap.Writer, s *Sample) {
	w.U64(s.PC)
	w.U64(s.DataAddr)
	for i := range s.Regs {
		w.U64(s.Regs[i])
	}
	w.U64(s.Cycle)
	w.I64(int64(s.Event))
}

// DecodeSample reads one sample record from r.
func DecodeSample(r *snap.Reader) Sample {
	var s Sample
	s.PC = r.U64()
	s.DataAddr = r.U64()
	for i := range s.Regs {
		s.Regs[i] = r.U64()
	}
	s.Cycle = r.U64()
	s.Event = cache.EventKind(r.I64())
	return s
}

// EncodeConfig appends a Config to w.
func EncodeConfig(w *snap.Writer, cfg Config) {
	w.I64(int64(cfg.Event))
	w.U64(cfg.Interval)
	w.U64(uint64(cfg.RandomBits))
	w.I64(int64(cfg.BufferSamples))
	w.F64(cfg.WatermarkFrac)
	w.U64(cfg.CaptureCycles)
	w.U64(cfg.InterruptCycles)
}

// DecodeConfig reads a Config from r.
func DecodeConfig(r *snap.Reader) Config {
	var cfg Config
	cfg.Event = cache.EventKind(r.I64())
	cfg.Interval = r.U64()
	cfg.RandomBits = uint(r.U64())
	cfg.BufferSamples = int(r.I64())
	cfg.WatermarkFrac = r.F64()
	cfg.CaptureCycles = r.U64()
	cfg.InterruptCycles = r.U64()
	return cfg
}

// Snapshot serializes the unit's programmed configuration, countdown,
// buffered samples and counters.
func (u *Unit) Snapshot() snap.ComponentState {
	var w snap.Writer
	EncodeConfig(&w, u.cfg)
	w.Bool(u.enabled)
	w.U64(u.countdown)
	w.U64(uint64(len(u.buf)))
	for i := range u.buf {
		EncodeSample(&w, &u.buf[i])
	}
	w.I64(int64(u.watermark))
	w.U64(u.eventsSeen)
	w.U64(u.samplesTaken)
	w.U64(u.dropped)
	w.U64(u.interrupts)
	return snap.ComponentState{Component: snapComponent, Version: snapVersion, Data: w.Bytes()}
}

// Restore overwrites the unit's programmed state. The CPU, handler,
// observer and RNG wiring is untouched.
func (u *Unit) Restore(st snap.ComponentState) error {
	if err := snap.Check(st, snapComponent, snapVersion); err != nil {
		return err
	}
	r := snap.NewReader(st.Data)
	cfg := DecodeConfig(r)
	enabled := r.Bool()
	countdown := r.U64()
	n := r.Count(SampleBytes)
	if r.Err() == nil && cfg.BufferSamples > 0 && n > cfg.BufferSamples {
		return fmt.Errorf("pebs: %w: %d buffered samples exceed capacity %d", snap.ErrDecode, n, cfg.BufferSamples)
	}
	// Sized from the validated count, not the blob's BufferSamples: the
	// capacity is only a pre-sizing hint, and append regrows it.
	buf := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		buf = append(buf, DecodeSample(r))
	}
	watermark := int(r.I64())
	eventsSeen := r.U64()
	samplesTaken := r.U64()
	dropped := r.U64()
	interrupts := r.U64()
	if err := r.Close(); err != nil {
		return err
	}
	u.cfg = cfg
	u.enabled = enabled
	u.countdown = countdown
	u.buf = buf
	u.watermark = watermark
	u.eventsSeen = eventsSeen
	u.samplesTaken = samplesTaken
	u.dropped = dropped
	u.interrupts = interrupts
	return nil
}
