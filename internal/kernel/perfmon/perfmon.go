// Package perfmon simulates the Perfmon loadable kernel module the
// paper builds on (§4.1, part 1 of the system): it owns access to the
// performance counter hardware, hides platform-specific details from
// the VM, provides the interrupt handler invoked when the CPU's sample
// buffer fills, and buffers samples in kernel space until user space
// reads them.
package perfmon

import (
	"fmt"

	"hpmvm/internal/hw/pebs"
	"hpmvm/internal/obs"
)

// CycleSink is where the module charges the cycles its own work
// consumes (interrupt handling, buffer copies, syscall entry/exit). In
// practice this is the *cpu.CPU.
type CycleSink interface {
	AddCycles(n uint64)
}

// The module's buffering and cost model, roughly a Linux perfmon2
// stack: a syscall plus buffer copy-out per poll, a few tens of cycles
// per sample moved.
const (
	// kernelBufferSamples is the capacity of the in-kernel sample buffer
	// that accumulates drained CPU buffers between user-space reads.
	kernelBufferSamples = 16 * 1024
	// copyCyclesPerSample is charged for moving one sample between
	// buffers (interrupt handler and read path).
	copyCyclesPerSample = 30
	// syscallCycles is charged per user-space read or control call.
	syscallCycles = 3000
)

// Module is the simulated kernel module. It implements
// pebs.InterruptHandler so the sampling hardware can deliver overflow
// interrupts to it.
type Module struct {
	unit  *pebs.Unit
	sink  CycleSink
	buf   []pebs.Sample
	lost  uint64 // samples dropped because the kernel buffer was full
	reads uint64 // user-space read syscalls serviced

	// obs, when non-nil, receives an EvPerfmonRead event per copy-out;
	// obsNow reads the global cycle counter for event stamps (nil when
	// the sink does not expose one).
	obs    *obs.Observer
	obsNow func() uint64
}

// NewModule loads the module over a sampling unit.
func NewModule(unit *pebs.Unit, sink CycleSink) *Module {
	m := &Module{unit: unit, sink: sink}
	unit.SetHandler(m)
	return m
}

// SetObserver attaches the observability layer: the module's counters
// are registered as sampled counters and every user-space copy-out is
// traced. Event cycle stamps come from the sink when it exposes a
// cycle counter (the production sink is the CPU); otherwise they are
// zero. Passing nil detaches.
func (m *Module) SetObserver(o *obs.Observer) {
	m.obs = o
	if o == nil {
		m.obsNow = nil
		return
	}
	if cr, ok := m.sink.(interface{ Cycles() uint64 }); ok {
		m.obsNow = cr.Cycles
	}
	o.RegisterSampled("perfmon.reads", func() uint64 { return m.reads })
	o.RegisterSampled("perfmon.lost", func() uint64 { return m.lost })
	o.RegisterSampled("perfmon.pending", func() uint64 { return uint64(len(m.buf)) })
}

// ConfigureSession programs the hardware for the given event and
// sampling parameters. It mirrors perfmon's context-programming
// syscalls.
func (m *Module) ConfigureSession(pcfg pebs.Config) error {
	m.sink.AddCycles(syscallCycles)
	if err := m.unit.Configure(pcfg); err != nil {
		return fmt.Errorf("perfmon: %w", err)
	}
	m.buf = m.buf[:0]
	return nil
}

// Start begins sampling.
func (m *Module) Start() {
	m.sink.AddCycles(syscallCycles)
	m.unit.Start()
}

// Stop halts sampling; buffered samples remain readable.
func (m *Module) Stop() {
	m.sink.AddCycles(syscallCycles)
	m.unit.Stop()
}

// SetInterval retargets the hardware sampling interval (used by the
// monitor's adaptive mode). Charged as a control syscall.
func (m *Module) SetInterval(interval uint64) {
	m.sink.AddCycles(syscallCycles)
	m.unit.SetInterval(interval)
}

// Interval returns the current hardware sampling interval.
func (m *Module) Interval() uint64 { return m.unit.Interval() }

// PEBSOverflow implements pebs.InterruptHandler: drain the CPU-side
// buffer into the kernel buffer.
func (m *Module) PEBSOverflow(u *pebs.Unit) {
	samples := u.Drain()
	m.sink.AddCycles(uint64(len(samples)) * copyCyclesPerSample)
	m.absorb(samples)
}

func (m *Module) absorb(samples []pebs.Sample) {
	space := kernelBufferSamples - len(m.buf)
	if space < len(samples) {
		m.lost += uint64(len(samples) - space)
		samples = samples[:space]
	}
	m.buf = append(m.buf, samples...)
}

// ReadSamples copies up to len(dst) pending samples into dst (the
// user-space pre-allocated array) and returns the count. It first
// drains any samples still sitting in the CPU buffer so a poll sees
// everything collected so far. Costs one syscall plus per-sample copy.
func (m *Module) ReadSamples(dst []pebs.Sample) int {
	m.sink.AddCycles(syscallCycles)
	m.reads++
	m.absorb(m.unit.Drain())
	n := copy(dst, m.buf)
	m.sink.AddCycles(uint64(n) * copyCyclesPerSample)
	m.buf = m.buf[:copy(m.buf, m.buf[n:])]
	if m.obs != nil {
		var now uint64
		if m.obsNow != nil {
			now = m.obsNow()
		}
		m.obs.Emit(obs.EvPerfmonRead, now, uint64(n), uint64(len(m.buf)), m.lost)
	}
	return n
}

// UnitStats returns the sampling hardware's counters (events seen,
// samples taken, drops) — perfmon exposes these as virtual counters.
func (m *Module) UnitStats() pebs.Stats { return m.unit.Stats() }
