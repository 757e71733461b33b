package bench

// Multiplexed sampled passes: one shared sampled simulation per
// workload hosts the unmonitored baseline and every monitored
// (interval × rep) configuration of a grid cell as virtual "lanes",
// replacing ~15 exact runs (fig2) or ~6 per heap point (sampling-fig5)
// with a single pass.
//
// The trick is that monitoring never changes the architecture — a
// monitored run retires the identical instruction stream and identical
// cache-state evolution as an unmonitored one; it only *adds cycles*
// (PEBS capture microcode, overflow interrupts, kernel syscalls, the
// collector thread's polls and decodes). So one sampled pass can carry
// the shared architectural stream while each lane keeps private copies
// of everything monitoring-specific:
//
//   - a laneClock: the shared CPU's cycle counter plus the lane's own
//     accumulated overhead. Every component that would charge the CPU
//     (PEBS unit, perfmon module, monitor) charges the laneClock
//     instead, so lanes never see each other's overhead.
//   - a private PEBS unit fed by a fan-out listener. Functional warming
//     delivers the full hardware event stream during fast-forward
//     (cache.Hierarchy.warmAccess), so each unit observes exactly the
//     events an exact run would, and takes the same samples: its PRNG
//     is seeded per-lane exactly like the exact grid's rep seeds.
//   - a private perfmon module and monitor, polled through a ticker
//     wrapper that translates the lane's deadline back to shared time.
//
// A lane's estimated full-run cycles are then the shared pass's
// extrapolated baseline cycles plus the lane's exactly-counted
// monitoring overhead.

import (
	"fmt"
	"math/rand"

	"hpmvm/internal/core"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/hw/cpu"
	"hpmvm/internal/hw/pebs"
	"hpmvm/internal/kernel/perfmon"
	"hpmvm/internal/monitor"
	"hpmvm/internal/stats"
)

// laneClock is one lane's virtual cycle counter: shared CPU time plus
// the lane's private monitoring overhead. It implements pebs.CPUState,
// perfmon.CycleSink and monitor.Clock, so the whole monitoring stack of
// a lane wires up against it exactly as it would against the real CPU.
type laneClock struct {
	cpu *cpu.CPU
	off uint64 // cycles of monitoring overhead this lane has accrued
}

func (c *laneClock) SamplePC() uint64                     { return c.cpu.SamplePC() }
func (c *laneClock) SampleRegs(dst *[pebs.NumRegs]uint64) { c.cpu.SampleRegs(dst) }
func (c *laneClock) CycleCount() uint64                   { return c.cpu.CycleCount() + c.off }
func (c *laneClock) Cycles() uint64                       { return c.cpu.Cycles() + c.off }
func (c *laneClock) AddCycles(n uint64)                   { c.off += n }

// fanoutListener gates hardware events on CPU privilege mode (like
// core's userFilter) and forwards each to every lane's PEBS unit.
type fanoutListener struct {
	cpu   *cpu.CPU
	units []*pebs.Unit
}

func (f *fanoutListener) HardwareEvent(kind cache.EventKind, addr uint64) {
	if !f.cpu.UserMode() {
		return
	}
	for _, u := range f.units {
		u.HardwareEvent(kind, addr)
	}
}

// laneTicker adapts a lane's monitor to the VM ticker loop: the
// monitor's deadline is in lane time (shared + off), the loop schedules
// in shared time, so the wrapper subtracts the lane's offset.
type laneTicker struct {
	mon *monitor.Monitor
	clk *laneClock
}

func (t *laneTicker) Deadline() uint64 {
	d := t.mon.Deadline()
	if d <= t.clk.off {
		return 0
	}
	return d - t.clk.off
}

func (t *laneTicker) Tick() { t.mon.Tick() }

// sampledLane is one monitored configuration riding the shared pass.
type sampledLane struct {
	clk  *laneClock
	unit *pebs.Unit
	mod  *perfmon.Module
	mon  *monitor.Monitor
}

// SampledPass is the result of one multiplexed sampled pass.
type SampledPass struct {
	Program string
	// Estimate is the shared pass's extrapolation: the unmonitored
	// baseline picture (the lanes' overhead never touches the shared
	// cycle counter).
	Estimate stats.Estimate
	// MonCycles[j][r] is the estimated full-run cycle count of the lane
	// for interval j (in the order given to RunSampledPass), repetition
	// r: baseline estimate plus the lane's exactly-counted monitoring
	// overhead.
	MonCycles [][]float64
	// Cycles is the pass's raw simulated volume (the distorted sampled
	// clock), for engine throughput accounting.
	Cycles uint64
}

// RunSampledPass executes one multiplexed sampled pass for the
// workload: a single sampled simulation under base (which must not
// itself enable monitoring or co-allocation — those change the shared
// architectural stream) hosting the unmonitored baseline plus one
// monitored lane per (interval × rep) cell. base.Sampling selects the
// region schedule (nil = the workload's calibrated schedule); heap
// sizing, seed and cycle budget apply to the shared pass. Lane rep
// seeds follow the exact grid's convention (seed + rep*7919, see
// RepeatAsync), so lane r samples with the same PRNG stream as exact
// repetition r.
func RunSampledPass(b Builder, base RunConfig, intervals []uint64, reps int) (*SampledPass, error) {
	prog := b()
	if base.Monitoring || base.Coalloc {
		return nil, fmt.Errorf("bench: %s: sampled pass base config cannot monitor or co-allocate — lanes carry the monitoring, and co-allocation feedback would change the shared architectural stream", prog.Name)
	}
	if base.Sampling == nil {
		scfg := CalibratedSampling(prog.Name)
		base.Sampling = &scfg
	}
	seed := base.Seed
	sys, _, err := buildSystem(prog, base)
	if err != nil {
		return nil, err
	}

	lanes := make([][]*sampledLane, len(intervals))
	var units []*pebs.Unit
	for j, iv := range intervals {
		for r := 0; r < reps; r++ {
			ln, err := newSampledLane(sys, iv, seed+int64(r)*7919)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: lane iv=%d rep=%d: %w", prog.Name, iv, r, err)
			}
			lanes[j] = append(lanes[j], ln)
			units = append(units, ln.unit)
		}
	}
	sys.VM.Hier.SetListener(&fanoutListener{cpu: sys.VM.CPU, units: units})

	if err := sys.Run(prog.Entry, base.MaxCycles); err != nil {
		return nil, fmt.Errorf("bench: %s: sampled pass: %w", prog.Name, err)
	}
	if prog.Expected != nil {
		if err := checkResults(prog.Expected, sys.VM.Results()); err != nil {
			return nil, fmt.Errorf("bench: %s: sampled pass: %w", prog.Name, err)
		}
	}
	for _, ivLanes := range lanes {
		for _, ln := range ivLanes {
			ln.mod.Stop()
			ln.mon.Flush()
		}
	}

	est, ok := sys.SamplingEstimate()
	if !ok {
		return nil, fmt.Errorf("bench: %s: sampled pass produced no estimate", prog.Name)
	}
	pass := &SampledPass{
		Program:  prog.Name,
		Estimate: est,
		Cycles:   sys.VM.Cycles(),
	}
	for _, ivLanes := range lanes {
		cycles := make([]float64, len(ivLanes))
		for r, ln := range ivLanes {
			cycles[r] = est.Cycles + float64(ln.clk.off)
		}
		pass.MonCycles = append(pass.MonCycles, cycles)
	}
	return pass, nil
}

// newSampledLane wires one monitored lane onto the shared system with
// the session of an exact monitored run (core.SessionConfig) and the
// same configure/start charges — billed to the lane clock.
func newSampledLane(sys *core.System, interval uint64, seed int64) (*sampledLane, error) {
	clk := &laneClock{cpu: sys.VM.CPU}
	unit := pebs.NewUnit(clk, rand.New(rand.NewSource(seed)))
	mod := perfmon.NewModule(unit, clk)

	mon := monitor.New(sys.VM, mod, monitor.Config{Auto: interval == 0})
	mon.SetClock(clk)

	if err := mod.ConfigureSession(core.SessionConfig(interval, cache.EventL1Miss)); err != nil {
		return nil, err
	}
	mod.Start()
	mon.Arm()
	sys.VM.AddTicker(&laneTicker{mon: mon, clk: clk})
	return &sampledLane{clk: clk, unit: unit, mod: mod, mon: mon}, nil
}
