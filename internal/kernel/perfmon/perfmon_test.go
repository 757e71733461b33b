package perfmon

import (
	"bytes"
	"errors"
	"testing"

	"hpmvm/internal/hw/cache"
	"hpmvm/internal/hw/pebs"
	"hpmvm/internal/snap"
)

type fakeCPU struct {
	cycles uint64
	regs   [pebs.NumRegs]uint64
}

func (f *fakeCPU) SamplePC() uint64                     { return 0x1234 }
func (f *fakeCPU) SampleRegs(dst *[pebs.NumRegs]uint64) { *dst = f.regs }
func (f *fakeCPU) CycleCount() uint64                   { return f.cycles }
func (f *fakeCPU) AddCycles(n uint64)                   { f.cycles += n }

// setup loads a module over a unit with no RNG, so every interval-th
// event is sampled, and programs a session at the given interval.
func setup(t *testing.T, interval uint64) (*fakeCPU, *pebs.Unit, *Module) {
	t.Helper()
	cpu := &fakeCPU{}
	unit := pebs.NewUnit(cpu, nil)
	mod := NewModule(unit, cpu)
	if err := mod.ConfigureSession(pebs.Config{Event: cache.EventL1Miss, Interval: interval}); err != nil {
		t.Fatal(err)
	}
	return cpu, unit, mod
}

// TestSessionLifecycle checks that the unit counts events exactly
// between Start and Stop.
func TestSessionLifecycle(t *testing.T) {
	_, unit, mod := setup(t, 1)
	seen := func() uint64 { return mod.UnitStats().EventsSeen }
	unit.HardwareEvent(cache.EventL1Miss, 0)
	if seen() != 0 {
		t.Error("counted an event before Start")
	}
	mod.Start()
	unit.HardwareEvent(cache.EventL1Miss, 0)
	if seen() != 1 {
		t.Errorf("EventsSeen = %d after Start, want 1", seen())
	}
	mod.Stop()
	unit.HardwareEvent(cache.EventL1Miss, 0)
	if seen() != 1 {
		t.Errorf("EventsSeen = %d after Stop, want still 1", seen())
	}
}

// watermark is the CPU buffer fill at which the unit interrupts: three
// quarters of its 2,048 samples.
const watermark = 1536

func TestInterruptDrainsCPUBuffer(t *testing.T) {
	_, unit, mod := setup(t, 1)
	mod.Start()
	for i := 0; i < watermark; i++ {
		unit.HardwareEvent(cache.EventL1Miss, uint64(i))
	}
	if got := mod.UnitStats().Interrupts; got != 1 {
		t.Fatalf("%d interrupts, want 1", got)
	}
	if len(mod.buf) != watermark {
		t.Errorf("kernel buffer has %d samples, want %d", len(mod.buf), watermark)
	}
	if n := len(unit.Drain()); n != 0 {
		t.Errorf("%d samples left in the CPU buffer after the interrupt", n)
	}
}

func TestReadSamples(t *testing.T) {
	_, unit, mod := setup(t, 1)
	mod.Start()
	for i := 0; i < 6; i++ {
		unit.HardwareEvent(cache.EventL1Miss, uint64(100+i))
	}
	// 6 samples sit in the CPU buffer (below the watermark); ReadSamples
	// must sweep them into user space.
	buf := make([]pebs.Sample, 4)
	n := mod.ReadSamples(buf)
	if n != 4 {
		t.Fatalf("first read = %d, want 4", n)
	}
	if buf[0].DataAddr != 100 {
		t.Errorf("sample order wrong: first DataAddr = %d", buf[0].DataAddr)
	}
	n = mod.ReadSamples(buf)
	if n != 2 {
		t.Fatalf("second read = %d, want 2", n)
	}
	if buf[0].DataAddr != 104 {
		t.Errorf("second batch starts at %d, want 104", buf[0].DataAddr)
	}
	if mod.ReadSamples(buf) != 0 {
		t.Error("third read should be empty")
	}
}

// TestKernelBufferOverflow drives eleven watermark interrupts: ten
// bring the kernel buffer to 15,360 samples, and of the eleventh's 1,536
// only 1,024 fit.
func TestKernelBufferOverflow(t *testing.T) {
	_, unit, mod := setup(t, 1)
	mod.Start()
	for i := 0; i < 11*watermark; i++ {
		unit.HardwareEvent(cache.EventL1Miss, uint64(i))
	}
	if len(mod.buf) != kernelBufferSamples {
		t.Errorf("kernel buffer = %d, want capacity %d", len(mod.buf), kernelBufferSamples)
	}
	if want := uint64(11*watermark - kernelBufferSamples); mod.lost != want {
		t.Errorf("lost = %d, want %d", mod.lost, want)
	}
}

// TestRestoreRejectsOverfullKernelBuffer forges a blob holding one
// sample more than the kernel buffer takes: absorb sizes its copy by the
// room left, so such a buffer would panic at the next interrupt. Restore
// must refuse it and leave the module as it was.
func TestRestoreRejectsOverfullKernelBuffer(t *testing.T) {
	_, _, mod := setup(t, 1)
	mod.buf = make([]pebs.Sample, kernelBufferSamples+1)
	forged := mod.Snapshot()

	_, _, fresh := setup(t, 1)
	before := fresh.Snapshot()
	if err := fresh.Restore(forged); !errors.Is(err, snap.ErrDecode) {
		t.Fatalf("Restore = %v, want an error wrapping snap.ErrDecode", err)
	}
	if !bytes.Equal(fresh.Snapshot().Data, before.Data) {
		t.Error("a failed Restore changed the module")
	}
}

func TestCycleCharging(t *testing.T) {
	cpu, unit, mod := setup(t, 1)
	start := cpu.cycles
	mod.Start() // one syscall
	if cpu.cycles-start != syscallCycles {
		t.Errorf("Start charged %d cycles", cpu.cycles-start)
	}
	unit.HardwareEvent(cache.EventL1Miss, 0)
	start = cpu.cycles
	buf := make([]pebs.Sample, 16)
	mod.ReadSamples(buf)
	want := uint64(syscallCycles + 1*copyCyclesPerSample)
	if cpu.cycles-start != want {
		t.Errorf("ReadSamples charged %d cycles, want %d", cpu.cycles-start, want)
	}
}

func TestSetIntervalPassesThrough(t *testing.T) {
	_, unit, mod := setup(t, 100)
	mod.SetInterval(4096)
	if unit.Interval() != 4096 || mod.Interval() != 4096 {
		t.Error("SetInterval did not reach the unit")
	}
}
