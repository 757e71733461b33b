package bench

// Lane passes: one shared simulation per workload hosts the
// unmonitored baseline and every monitored (interval × rep)
// configuration of a grid cell as "lanes", replacing 1 + intervals ×
// reps separate runs with a single pass.
//
// The trick is that monitoring never changes the architecture — a
// monitored run retires the identical instruction stream and identical
// cache-state evolution as an unmonitored one; it only *adds cycles*
// (PEBS capture microcode, overflow interrupts, kernel syscalls, the
// collector thread's polls and decodes). So one pass can carry the
// shared architectural stream while each lane keeps private copies of
// everything monitoring-specific:
//
//   - a laneClock: the shared CPU's cycle counter plus the lane's own
//     accumulated overhead. Every component that would charge the CPU
//     (PEBS unit, perfmon module, monitor) charges the laneClock
//     instead, so lanes never see each other's overhead.
//   - a private PEBS unit fed by a fan-out listener, its PRNG seeded
//     per lane exactly like the separate runs' rep seeds, so it takes
//     the same samples. In a sampled pass, functional warming delivers
//     the full hardware event stream during fast-forward
//     (cache.Hierarchy.warmAccess), so the same holds there.
//   - a private perfmon module and monitor, polled through a ticker
//     wrapper that translates the lane's deadline back to shared time.
//
// A charge moves its lane's deadline earlier in shared time, after the
// run loop has fixed its horizon, so every lane charge asks the CPU to
// yield at the next instruction boundary: the VM then re-reads every
// deadline, and each lane polls exactly when its separate run would.
// An exact pass therefore reproduces each separate run's cycles and
// monitoring counters bit for bit (TestLanesMatchSeparateRuns). A
// sampled pass's lane cycles are its extrapolated baseline plus the
// lane's exactly-counted overhead.

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

// AddCycles charges the lane and asks the CPU to yield, so the VM
// re-reads the lane's deadline, which the charge just moved earlier.
func (c *laneClock) AddCycles(n uint64) {
	c.off += n
	c.cpu.Yield()
}

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

// laneStack is the private monitoring stack of one lane riding the
// shared pass.
type laneStack struct {
	clk  *laneClock
	unit *pebs.Unit
	mod  *perfmon.Module
	mon  *monitor.Monitor
}

// Lane is one monitored configuration's outcome in a pass.
type Lane struct {
	// Cycles is the lane's full-run cycle count: the pass's Base plus
	// the lane's monitoring overhead.
	Cycles  float64
	Monitor monitor.Stats
	PEBS    pebs.Stats
}

// LanePass is the result of one lane pass.
type LanePass struct {
	// Base is the unmonitored baseline's full-run cycle count: the
	// shared simulation's own in an exact pass, its extrapolation in a
	// sampled one (the lanes' overhead never touches the shared
	// counter).
	Base float64
	// Lanes[j][r] is the lane of interval j (in the order given to
	// RunLanes), repetition r.
	Lanes [][]Lane
	// Cycles is the shared simulation's raw cycle count (in a sampled
	// pass its distorted sampled clock), for engine throughput
	// accounting.
	Cycles uint64
}

// MeanCycles returns the mean full-run cycles of interval j's lanes.
func (p *LanePass) MeanCycles(j int) float64 {
	cycles := make([]float64, len(p.Lanes[j]))
	for r, ln := range p.Lanes[j] {
		cycles[r] = ln.Cycles
	}
	return stats.Mean(cycles)
}

// RunLanes executes one lane pass for the workload: a single
// simulation under base hosting the unmonitored baseline plus one
// monitored lane per (interval × rep) cell, interval 0 meaning auto.
// base.Sampling nil runs the pass exactly; non-nil runs it sampled on
// that schedule. base must not monitor, run an optimization or run
// the adaptive system: each of those reads the clock a lane charges,
// which would make the shared stream depend on the lane. Heap sizing,
// seed and cycle budget apply to the shared simulation. Lane rep seeds
// follow RepeatAsync (seed + rep*7919), so lane r samples with the
// PRNG stream of separate repetition r.
func RunLanes(b Builder, base RunConfig, intervals []uint64, reps int) (*LanePass, error) {
	if reps < 1 {
		return nil, fmt.Errorf("reps must be at least 1, got %d", reps)
	}
	if len(intervals) == 0 {
		return nil, fmt.Errorf("bench: lane pass without an interval")
	}
	prog := b()
	sys, opts, err := buildSystem(prog, base)
	if err != nil {
		return nil, err
	}
	if opts.Monitoring || base.Adaptive {
		return nil, fmt.Errorf("bench: %s: a lane pass's base config cannot monitor, optimize or run adaptively — lanes carry the monitoring, and anything reading their clock would change the shared stream", prog.Name)
	}

	lanes := make([][]*laneStack, len(intervals))
	var units []*pebs.Unit
	for j, iv := range intervals {
		for r := 0; r < reps; r++ {
			ln, err := newLane(sys, iv, base.Seed+int64(r)*7919)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: lane iv=%d rep=%d: %w", prog.Name, iv, r, err)
			}
			lanes[j] = append(lanes[j], ln)
			units = append(units, ln.unit)
		}
	}
	sys.VM.Hier.SetListener(&fanoutListener{cpu: sys.VM.CPU, units: units})

	if err := sys.Run(prog.Entry, base.MaxCycles); err != nil {
		return nil, fmt.Errorf("bench: %s: lane pass: %w", prog.Name, err)
	}
	if prog.Expected != nil {
		if err := checkResults(prog.Expected, sys.VM.Results()); err != nil {
			return nil, fmt.Errorf("bench: %s: lane pass: %w", prog.Name, err)
		}
	}

	pass := &LanePass{Base: float64(sys.VM.Cycles()), Cycles: sys.VM.Cycles()}
	if base.Sampling != nil {
		est, ok := sys.SamplingEstimate()
		if !ok {
			return nil, fmt.Errorf("bench: %s: sampled lane pass produced no estimate", prog.Name)
		}
		pass.Base = est.Cycles
	}
	for _, ivLanes := range lanes {
		out := make([]Lane, len(ivLanes))
		for r, ln := range ivLanes {
			ln.mod.Stop()
			ln.mon.Flush()
			out[r] = Lane{
				Cycles:  pass.Base + float64(ln.clk.off),
				Monitor: ln.mon.Stats(),
				PEBS:    ln.unit.Stats(),
			}
		}
		pass.Lanes = append(pass.Lanes, out)
	}
	return pass, nil
}

// newLane wires one monitored lane onto the shared system with the
// session of a separate monitored run (core.SessionConfig) and the same
// configure/start charges — billed to the lane clock.
func newLane(sys *core.System, interval uint64, seed int64) (*laneStack, error) {
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
	return &laneStack{clk: clk, unit: unit, mod: mod, mon: mon}, nil
}
