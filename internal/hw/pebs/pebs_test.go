package pebs

import (
	"math/rand"
	"testing"

	"hpmvm/internal/hw/cache"
)

// fakeCPU implements CPUState for unit tests.
type fakeCPU struct {
	pc     uint64
	regs   [NumRegs]uint64
	cycles uint64
}

func (f *fakeCPU) SamplePC() uint64                { return f.pc }
func (f *fakeCPU) SampleRegs(dst *[NumRegs]uint64) { *dst = f.regs }
func (f *fakeCPU) CycleCount() uint64              { return f.cycles }
func (f *fakeCPU) AddCycles(n uint64)              { f.cycles += n }

type recHandler struct {
	fired int
	drain bool
	unit  *Unit
	got   []Sample
}

func (h *recHandler) PEBSOverflow(u *Unit) {
	h.fired++
	if h.drain {
		h.got = append(h.got, u.Drain()...)
	}
}

func cfg(interval uint64) Config {
	return Config{Event: cache.EventL1Miss, Interval: interval}
}

func TestIntervalCounting(t *testing.T) {
	cpu := &fakeCPU{pc: 0x1000}
	u := NewUnit(cpu, nil)
	if err := u.Configure(cfg(4)); err != nil {
		t.Fatal(err)
	}
	u.Start()
	for i := 0; i < 16; i++ {
		u.HardwareEvent(cache.EventL1Miss, uint64(i))
	}
	st := u.Stats()
	if st.EventsSeen != 16 {
		t.Errorf("EventsSeen = %d", st.EventsSeen)
	}
	if st.SamplesTaken != 4 {
		t.Errorf("SamplesTaken = %d, want 4 (every 4th event)", st.SamplesTaken)
	}
}

func TestOnlySelectedEventSampled(t *testing.T) {
	cpu := &fakeCPU{}
	u := NewUnit(cpu, nil)
	if err := u.Configure(cfg(1)); err != nil {
		t.Fatal(err)
	}
	u.Start()
	u.HardwareEvent(cache.EventL2Miss, 1)
	u.HardwareEvent(cache.EventDTLBMiss, 2)
	if u.Stats().SamplesTaken != 0 {
		t.Error("sampled a non-selected event (P4 PEBS samples one event at a time)")
	}
	u.HardwareEvent(cache.EventL1Miss, 3)
	if u.Stats().SamplesTaken != 1 {
		t.Error("selected event not sampled")
	}
}

func TestSampleContents(t *testing.T) {
	cpu := &fakeCPU{pc: 0xBEEF00, cycles: 777}
	cpu.regs[3] = 42
	u := NewUnit(cpu, nil)
	if err := u.Configure(cfg(1)); err != nil {
		t.Fatal(err)
	}
	u.Start()
	u.HardwareEvent(cache.EventL1Miss, 0xDA7A)
	s := u.Drain()
	if len(s) != 1 {
		t.Fatalf("drained %d samples", len(s))
	}
	if s[0].PC != 0xBEEF00 || s[0].DataAddr != 0xDA7A || s[0].Regs[3] != 42 || s[0].Event != cache.EventL1Miss {
		t.Errorf("sample contents wrong: %+v", s[0])
	}
	// Capture must charge microcode cycles; sample timestamp precedes
	// the charge.
	if cpu.cycles != 777+captureCycles {
		t.Errorf("capture cycles = %d", cpu.cycles)
	}
}

func TestWatermarkInterrupt(t *testing.T) {
	cpu := &fakeCPU{}
	u := NewUnit(cpu, nil)
	h := &recHandler{drain: true}
	u.SetHandler(h)
	if err := u.Configure(cfg(1)); err != nil {
		t.Fatal(err)
	}
	u.Start()
	for i := 0; i < watermark-1; i++ {
		u.HardwareEvent(cache.EventL1Miss, uint64(i))
	}
	if h.fired != 0 {
		t.Fatalf("interrupts = %d below the watermark, want 0", h.fired)
	}
	u.HardwareEvent(cache.EventL1Miss, watermark-1)
	if h.fired != 1 {
		t.Fatalf("interrupts = %d, want 1", h.fired)
	}
	if len(h.got) != watermark {
		t.Fatalf("handler drained %d samples", len(h.got))
	}
	if len(u.buf) != 0 {
		t.Error("buffer not drained")
	}
}

func TestBufferOverflowDrops(t *testing.T) {
	cpu := &fakeCPU{}
	u := NewUnit(cpu, nil)
	// No handler: nothing drains the buffer.
	if err := u.Configure(cfg(1)); err != nil {
		t.Fatal(err)
	}
	u.Start()
	for i := 0; i < bufferSamples+6; i++ {
		u.HardwareEvent(cache.EventL1Miss, uint64(i))
	}
	st := u.Stats()
	if st.SamplesTaken != bufferSamples {
		t.Errorf("SamplesTaken = %d, want buffer capacity %d", st.SamplesTaken, bufferSamples)
	}
	if st.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", st.Dropped)
	}
}

func TestRandomizedInterval(t *testing.T) {
	cpu := &fakeCPU{}
	u := NewUnit(cpu, rand.New(rand.NewSource(7)))
	if err := u.Configure(cfg(1024)); err != nil {
		t.Fatal(err)
	}
	u.Start()
	// Fire a long event stream; with 8 randomized bits the distance
	// between samples must stay within [1024-255, 1024+255] of the
	// base interval (the top bits are preserved).
	var sampleAt []int
	for i := 0; i < 100_000; i++ {
		before := u.Stats().SamplesTaken
		u.HardwareEvent(cache.EventL1Miss, 0)
		if u.Stats().SamplesTaken != before {
			sampleAt = append(sampleAt, i)
		}
	}
	if len(sampleAt) < 50 {
		t.Fatalf("too few samples: %d", len(sampleAt))
	}
	distinct := map[int]bool{}
	for i := 1; i < len(sampleAt); i++ {
		d := sampleAt[i] - sampleAt[i-1]
		if d < 1024-256 || d > 1024+256 {
			t.Fatalf("inter-sample distance %d outside randomized window", d)
		}
		distinct[d] = true
	}
	if len(distinct) < 10 {
		t.Errorf("intervals not randomized: %d distinct distances", len(distinct))
	}
}

func TestStopAndRestart(t *testing.T) {
	cpu := &fakeCPU{}
	u := NewUnit(cpu, nil)
	if err := u.Configure(cfg(1)); err != nil {
		t.Fatal(err)
	}
	u.Start()
	u.HardwareEvent(cache.EventL1Miss, 0)
	u.Stop()
	u.HardwareEvent(cache.EventL1Miss, 0)
	if st := u.Stats(); st.SamplesTaken != 1 || st.EventsSeen != 1 {
		t.Errorf("%+v after Stop, want one event seen and sampled", st)
	}
	u.Start()
	u.HardwareEvent(cache.EventL1Miss, 0)
	if u.Stats().SamplesTaken != 2 {
		t.Error("not sampling after restart")
	}
}

func TestConfigValidation(t *testing.T) {
	u := NewUnit(&fakeCPU{}, nil)
	if err := u.Configure(cfg(0)); err == nil {
		t.Error("accepted zero interval")
	}
}

func TestSetInterval(t *testing.T) {
	u := NewUnit(&fakeCPU{}, nil)
	if err := u.Configure(cfg(1000)); err != nil {
		t.Fatal(err)
	}
	if u.Interval() != 1000 {
		t.Errorf("Interval = %d after Configure, want 1000", u.Interval())
	}
	u.SetInterval(555)
	if u.Interval() != 555 {
		t.Error("SetInterval not applied")
	}
}

// TestFineIntervalBelowRandomWidth pins the legal fine-sampling mode
// the Figure 2/3 operating points rely on: Interval < 1<<randomBits
// (e.g. 250 with 8 randomized bits) configures fine, and the effective
// interval is the randomized low bits alone — samples keep flowing and
// the countdown never sticks.
func TestFineIntervalBelowRandomWidth(t *testing.T) {
	cpu := &fakeCPU{}
	u := NewUnit(cpu, rand.New(rand.NewSource(3)))
	// 250 >> 8 == 0: the base bits vanish entirely.
	if err := u.Configure(cfg(250)); err != nil {
		t.Fatalf("fine interval rejected: %v", err)
	}
	u.Start()
	for i := 0; i < 10_000; i++ {
		u.HardwareEvent(cache.EventL1Miss, uint64(i))
	}
	st := u.Stats()
	if st.SamplesTaken == 0 {
		t.Fatal("no samples in fine-interval mode")
	}
	// Effective interval is uniform in [1, 256): over 10 K events the
	// sample count must land far from both "every event" and "never".
	if st.SamplesTaken < 20 || st.SamplesTaken > 9_000 {
		t.Errorf("SamplesTaken = %d, outside the fine-interval regime", st.SamplesTaken)
	}
}

func TestSetIntervalClampsToRandomizedWidth(t *testing.T) {
	u := NewUnit(&fakeCPU{}, rand.New(rand.NewSource(1)))
	if err := u.Configure(cfg(1000)); err != nil {
		t.Fatal(err)
	}
	// Below 1<<randomBits the randomization could zero the interval
	// register; the retarget clamps to the randomized width.
	u.SetInterval(10)
	if u.Interval() != 256 {
		t.Errorf("SetInterval(10) with 8 random bits = %d, want clamp to 256", u.Interval())
	}
	u.SetInterval(0)
	if u.Interval() != 256 {
		t.Errorf("SetInterval(0) with 8 random bits = %d, want clamp to 256", u.Interval())
	}
	u.SetInterval(300)
	if u.Interval() != 300 {
		t.Errorf("SetInterval(300) = %d, want applied as-is", u.Interval())
	}
}
