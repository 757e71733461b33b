// Package pebs simulates the Pentium 4's precise event-based sampling
// facility (§3.1, §4.1 of the paper). The unit counts occurrences of a
// single selected hardware event; every time the interval counter
// triggers, a microcode routine captures the exact CPU state (program
// counter plus all register contents — "precise", unlike earlier CPUs
// that reported approximate locations) into a buffer supplied by the OS
// kernel module. An interrupt is raised only when the buffer fills to a
// configured watermark, keeping per-sample cost tiny.
//
// Like the real P4, only one event kind can be measured at a time.
package pebs

import (
	"fmt"
	"math/rand"

	"hpmvm/internal/hw/cache"
	"hpmvm/internal/obs"
)

// NumRegs is the number of general-purpose registers captured per
// sample. 16 registers at 8 bytes plus the PC and data address bring a
// logical sample to the paper's 40-byte record scaled to a 64-bit
// register file.
const NumRegs = 16

// SampleSize is the architectural size of one sample record in bytes,
// used for buffer-capacity accounting. The paper's P4 sample is 40
// bytes (EIP + 32-bit register set); we keep the same record size for
// the space-overhead experiments so buffer maths match §6.2.
const SampleSize = 40

// Sample is one precise event sample: the exact instruction that caused
// the event, the data address involved, the captured register file, and
// the cycle timestamp.
type Sample struct {
	PC       uint64          // address of the machine instruction that caused the event
	DataAddr uint64          // data address whose access triggered the event
	Regs     [NumRegs]uint64 // register file at the time of the event
	Cycle    uint64          // global cycle counter when the sample was taken
	Event    cache.EventKind
}

// CPUState lets the sampling microcode read the processor state it
// snapshots and charge cycles for its own execution.
type CPUState interface {
	// SamplePC returns the address of the currently retiring instruction.
	SamplePC() uint64
	// SampleRegs copies the register file into dst.
	SampleRegs(dst *[NumRegs]uint64)
	// CycleCount returns the current global cycle counter.
	CycleCount() uint64
	// AddCycles charges n cycles of microcode/interrupt overhead.
	AddCycles(n uint64)
}

// The paper's operating point (§4.1, §6.1), the same for every
// session: a session programs only the event and interval (Config).
const (
	// randomBits is the number of low-order interval bits randomized
	// after each sample to avoid lock-step bias (§6.1 uses 8 bits).
	randomBits = 8
	// bufferSamples is the capacity of the CPU-side sample buffer: the
	// paper's user-space library keeps an 80 KB buffer.
	bufferSamples = 80 * 1024 / SampleSize
	// watermark is the buffer fill at which the overflow interrupt
	// fires: three quarters of the buffer.
	watermark = bufferSamples * 3 / 4
	// captureCycles is the microcode cost charged per captured sample.
	captureCycles = 120
	// interruptCycles is the cost charged when the watermark interrupt
	// fires (pipeline drain + handler entry).
	interruptCycles = 4000
)

// Config is what a session programs into the unit.
type Config struct {
	// Event selects which hardware event is sampled.
	Event cache.EventKind
	// Interval is the sampling interval: every Interval-th event is
	// sampled. Must be positive when sampling is enabled.
	Interval uint64
}

// InterruptHandler is invoked (synchronously, in simulated time) when
// the sample buffer reaches its watermark. The OS kernel module
// registers its handler here.
type InterruptHandler interface {
	PEBSOverflow(u *Unit)
}

// Unit is the simulated sampling hardware. It implements
// cache.Listener so it can be attached directly to the memory
// hierarchy's event stream.
type Unit struct {
	cfg       Config
	cpu       CPUState
	handler   InterruptHandler
	rng       *rand.Rand
	enabled   bool
	countdown uint64

	buf []Sample

	// obs, when non-nil, receives an EvPEBSInterrupt event per
	// watermark interrupt (nil-gated, like the hierarchy's listener).
	obs *obs.Observer

	// Counters.
	eventsSeen   uint64 // events of the selected kind observed while enabled
	samplesTaken uint64
	dropped      uint64 // samples lost to a full buffer
	interrupts   uint64
}

// NewUnit builds a sampling unit bound to a CPU state provider. rng
// drives interval randomization; pass a seeded source for reproducible
// runs, or nil to sample exactly every Interval-th event.
func NewUnit(cpu CPUState, rng *rand.Rand) *Unit {
	return &Unit{cpu: cpu, rng: rng}
}

// SetHandler registers the kernel's overflow interrupt handler.
func (u *Unit) SetHandler(h InterruptHandler) { u.handler = h }

// SetObserver attaches the observability layer: the unit's counters
// are registered as sampled counters and every watermark interrupt is
// traced. Passing nil detaches.
func (u *Unit) SetObserver(o *obs.Observer) {
	u.obs = o
	if o == nil {
		return
	}
	o.RegisterSampled("pebs.events_seen", func() uint64 { return u.eventsSeen })
	o.RegisterSampled("pebs.samples_taken", func() uint64 { return u.samplesTaken })
	o.RegisterSampled("pebs.dropped", func() uint64 { return u.dropped })
	o.RegisterSampled("pebs.interrupts", func() uint64 { return u.interrupts })
}

// Configure programs the unit. Sampling remains disabled until Start.
//
// A zero interval is rejected rather than armed: it would fire the
// counter on every event — a misconfigured session must error, not
// silently melt the simulated machine. An Interval smaller than
// 1<<randomBits remains legal: the base bits vanish and the effective
// interval is uniform in [1, 1<<randomBits) — the documented semantics
// of the hardware's bit-randomization, relied on by the Figure 2/3
// fine-interval operating points (see reload).
func (u *Unit) Configure(cfg Config) error {
	if cfg.Interval == 0 {
		return fmt.Errorf("pebs: sampling interval must be positive")
	}
	u.cfg = cfg
	u.buf = make([]Sample, 0, bufferSamples)
	u.reload()
	return nil
}

// SetInterval retargets the sampling interval while running; the
// monitor's auto mode uses this to hold the sample rate near its
// target (§6.3: "adapts the sampling interval to obtain a certain
// number of samples per second"). The interval is clamped so the
// randomized bits can never randomize it to zero: the effective minimum
// is 1<<randomBits, preserving the Configure invariant across runtime
// retargeting.
func (u *Unit) SetInterval(interval uint64) {
	if min := uint64(1) << randomBits; interval < min {
		interval = min
	}
	u.cfg.Interval = interval
}

// Interval returns the current (unrandomized) sampling interval.
func (u *Unit) Interval() uint64 { return u.cfg.Interval }

// Start enables event counting and sampling.
func (u *Unit) Start() { u.enabled = true }

// Stop disables sampling; buffered samples remain readable.
func (u *Unit) Stop() { u.enabled = false }

// reload arms the interval countdown, randomizing the low-order bits
// when the unit has an RNG. The armed value is never zero: when
// Interval < 1<<randomBits the base bits vanish and the countdown is
// the randomized low bits alone, clamped to at least 1 — a well-defined
// fine-sampling mode, not a stuck counter (Configure and SetInterval
// reject/clamp the intervals that could otherwise arm a never- or
// always-firing counter).
func (u *Unit) reload() {
	iv := u.cfg.Interval
	if u.rng != nil {
		mask := uint64(1)<<randomBits - 1
		iv = (iv &^ mask) | (u.rng.Uint64() & mask)
		if iv == 0 {
			iv = 1
		}
	}
	u.countdown = iv
}

// HardwareEvent implements cache.Listener: the memory hierarchy feeds
// every miss event here, and the unit samples the selected kind.
func (u *Unit) HardwareEvent(kind cache.EventKind, addr uint64) {
	if !u.enabled || kind != u.cfg.Event {
		return
	}
	u.eventsSeen++
	if u.countdown > 1 {
		u.countdown--
		return
	}
	u.reload()
	u.capture(kind, addr)
}

// capture runs the sampling microcode: snapshot CPU state into the
// buffer and raise the interrupt at the watermark.
func (u *Unit) capture(kind cache.EventKind, addr uint64) {
	if len(u.buf) >= bufferSamples {
		u.dropped++
		return
	}
	var s Sample
	s.PC = u.cpu.SamplePC()
	s.DataAddr = addr
	u.cpu.SampleRegs(&s.Regs)
	s.Cycle = u.cpu.CycleCount()
	s.Event = kind
	u.buf = append(u.buf, s)
	u.samplesTaken++
	u.cpu.AddCycles(captureCycles)

	if len(u.buf) >= watermark && u.handler != nil {
		u.interrupts++
		u.cpu.AddCycles(interruptCycles)
		if u.obs != nil {
			u.obs.Emit(obs.EvPEBSInterrupt, u.cpu.CycleCount(), uint64(len(u.buf)), u.interrupts, 0)
		}
		u.handler.PEBSOverflow(u)
	}
}

// Drain moves all buffered samples to the caller (the kernel interrupt
// handler or a polling read) and empties the buffer.
func (u *Unit) Drain() []Sample {
	out := make([]Sample, len(u.buf))
	copy(out, u.buf)
	u.buf = u.buf[:0]
	return out
}

// Stats describes the unit's activity so far.
type Stats struct {
	EventsSeen   uint64
	SamplesTaken uint64
	Dropped      uint64
	Interrupts   uint64
}

// Stats returns a snapshot of the unit counters.
func (u *Unit) Stats() Stats {
	return Stats{
		EventsSeen:   u.eventsSeen,
		SamplesTaken: u.samplesTaken,
		Dropped:      u.dropped,
		Interrupts:   u.interrupts,
	}
}
