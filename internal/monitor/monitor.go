// Package monitor implements the paper's runtime monitoring
// infrastructure (§4): a collector "thread" that polls the perfmon
// kernel module for raw PEBS samples at an adaptive interval, maps
// each sample's program counter back to the method and, in
// opt-compiled code, the IR instruction that caused it (via the
// machine-code maps), and maintains per-reference-field cache-miss
// counters and time series — the feedback the co-allocating garbage
// collector and the revert heuristic consume (§5.2–5.3). Consumers of
// each decoded sample's PC and method (code layout, software prefetch)
// attach through AddSink; the per-instruction MC→bytecode maps live in
// package mcmap.
package monitor

import (
	"fmt"
	"sort"

	"hpmvm/internal/gc/heap"
	"hpmvm/internal/hw/pebs"
	"hpmvm/internal/kernel/perfmon"
	"hpmvm/internal/obs"
	"hpmvm/internal/stats"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/compiler/opt"
	"hpmvm/internal/vm/mcmap"
	"hpmvm/internal/vm/runtime"
)

// Config selects the collector thread's two per-run settings; the rest
// of its operating point is the package constants below.
type Config struct {
	// Auto enables adaptive control of the hardware sampling interval.
	Auto bool
	// TrackFields, when non-empty, restricts time-series recording to
	// the named fields ("Class::field"); empty tracks every attributed
	// field.
	TrackFields []string
}

// The collector thread's operating point. The paper polls every
// 10–1000 ms and auto-targets 200 samples/second on runs lasting tens
// of seconds; simulated runs are ~100× shorter, so these constants
// scale the polling and targeting by the same factor (documented in
// DESIGN.md) while keeping the hardware sampling intervals (25K, 50K,
// 100K events) identical to the paper's.
const (
	// pollMinCycles and pollMaxCycles bound the adaptive poll interval
	// (paper: 10 ms to 1000 ms).
	pollMinCycles = 300_000    // ~0.1 ms at 3 GHz
	pollMaxCycles = 10_000_000 // ~3.3 ms

	// autoTargetPerMCycle is auto mode's target sample rate in samples
	// per million cycles (the paper's 200 samples/sec at 3 GHz,
	// time-scaled); autoMinInterval and autoMaxInterval clamp the
	// adapted interval.
	autoTargetPerMCycle = 7
	autoMinInterval     = 1_000
	autoMaxInterval     = 10_000_000

	// jniCallCycles is charged per poll for crossing the native boundary
	// (the paper's pre-allocated-array JNI trick makes this a single
	// crossing per poll, §4.1).
	jniCallCycles = 2_000
	// decodeCyclesPerSample is charged for decoding one raw sample (the
	// paper's method/bytecode/IR lookup) and updating counters.
	decodeCyclesPerSample = 600
	// batchCapacity is the size of the pre-allocated user-space sample
	// array (80 KB in the paper).
	batchCapacity = 80 * 1024 / pebs.SampleSize
)

// FieldCounter aggregates attributed events for one reference field.
type FieldCounter struct {
	Field *classfile.Field
	// Samples is the raw number of PEBS samples attributed to the
	// field; EstimatedMisses scales each sample by the sampling
	// interval in effect when it was taken.
	Samples         uint64
	EstimatedMisses uint64
	// Series records estimated misses per poll period (Figure 7a's
	// cumulative curve is built from it).
	Series stats.Series
	// RateSeries records the miss rate in estimated misses per
	// megacycle — periods have varying lengths (the poll interval is
	// adaptive), so rates are the comparable signal the co-allocation
	// policy and Figure 7b use.
	RateSeries stats.Series
	// Placement-variant attribution: samples whose data address fell
	// inside an adjacent or a gapped co-allocated cell (the A/B signal
	// the revert heuristic compares).
	AdjacentSamples uint64
	GappedSamples   uint64
	// periodSamples accumulates within the current poll period.
	periodSamples uint64
	periodWeight  uint64
	// phase-change detection state: the previous window's mean rate.
	prevWindowRate float64
}

// Stats summarizes monitor activity.
type Stats struct {
	Polls            uint64
	SamplesRead      uint64
	SamplesDecoded   uint64
	SamplesDropped   uint64 // PC not in any compiled method (VM/native)
	FieldsAttributed uint64 // samples charged to a reference field
	MonitorCycles    uint64 // cycles consumed by monitoring work

	// Per-space classification of the sampled data addresses: where in
	// the heap the misses actually land (nursery accesses are cheap
	// and transient; mature-space misses are what co-allocation
	// attacks).
	SamplesNursery  uint64
	SamplesMature   uint64
	SamplesLOS      uint64
	SamplesImmortal uint64
	SamplesOther    uint64 // stacks, dispatch tables, code
}

// Clock is the cycle counter the monitor schedules against and charges
// its own work to. A directly attached monitor uses the VM's CPU; a
// lane (bench.RunLanes) substitutes a per-lane virtual clock so many
// monitors can share one machine without charging each other's
// overhead.
type Clock interface {
	Cycles() uint64
	AddCycles(n uint64)
}

// Monitor is the collector thread. It implements runtime.Ticker; the
// VM's execution loop invokes Tick in "kernel" mode at Deadline.
type Monitor struct {
	vm     *runtime.VM
	module *perfmon.Module
	cfg    Config
	clock  Clock

	buf      []pebs.Sample // the pre-allocated user-space array
	deadline uint64
	pollGap  uint64

	fields map[int]*FieldCounter
	// pairsByMethod caches methodID -> (IR id -> field) from the opt
	// compiler's access-path analysis (the §5.2 "instructions of
	// interest" filter, built per compiled method).
	pairsByMethod map[int]map[int32]*classfile.Field

	observers []func(nowCycles uint64)
	sinks     []SampleFunc

	// phaseEvents records detected execution-phase changes (§5.3: "the
	// rate of events for each reference field is measured throughout
	// the execution and this allows detecting phase changes").
	phaseEvents []string

	lastAutoCycles uint64
	lastAutoEvents uint64

	st        Stats
	tracked   map[string]bool
	lastFlush uint64

	// obs, when non-nil, receives a poll event per Tick and a
	// phase-change event per detection (nil-gated).
	obs *obs.Observer

	// classify, when set, maps a sampled data address to its placement
	// variant (wired to the GenMS collector's ClassifyAddr).
	classify func(addr uint64) (coalloced, gapped bool)
}

// New builds a monitor over the VM and kernel module. Call Attach to
// start polling.
func New(vm *runtime.VM, module *perfmon.Module, cfg Config) *Monitor {
	m := &Monitor{
		vm:            vm,
		module:        module,
		cfg:           cfg,
		clock:         vm.CPU,
		buf:           make([]pebs.Sample, batchCapacity),
		fields:        make(map[int]*FieldCounter),
		pairsByMethod: make(map[int]map[int32]*classfile.Field),
		pollGap:       pollMinCycles,
	}
	if len(cfg.TrackFields) > 0 {
		m.tracked = make(map[string]bool)
		for _, f := range cfg.TrackFields {
			m.tracked[f] = true
		}
	}
	vm.OnRecompile(func(methodID int) { delete(m.pairsByMethod, methodID) })
	return m
}

// SetClock replaces the cycle source the monitor polls against and
// charges into (default: the VM's CPU). Call before Attach or Arm.
func (m *Monitor) SetClock(c Clock) { m.clock = c }

// Arm initializes the poll deadline from the clock without registering
// with the VM's ticker loop — lanes (bench.RunLanes) schedule their own
// ticks through a translating wrapper.
func (m *Monitor) Arm() {
	m.deadline = m.clock.Cycles() + m.pollGap
}

// Attach registers the monitor with the VM's ticker loop.
func (m *Monitor) Attach() {
	m.Arm()
	m.vm.AddTicker(m)
}

// SetObserver attaches the observability layer: the monitor's counters
// are registered as sampled counters, each poll is traced and timed as
// a "monitor.poll" phase, and detected phase changes are traced.
// Passing nil detaches.
func (m *Monitor) SetObserver(o *obs.Observer) {
	m.obs = o
	if o == nil {
		return
	}
	o.RegisterSampled("monitor.polls", func() uint64 { return m.st.Polls })
	o.RegisterSampled("monitor.samples_read", func() uint64 { return m.st.SamplesRead })
	o.RegisterSampled("monitor.samples_decoded", func() uint64 { return m.st.SamplesDecoded })
	o.RegisterSampled("monitor.samples_dropped", func() uint64 { return m.st.SamplesDropped })
	o.RegisterSampled("monitor.fields_attributed", func() uint64 { return m.st.FieldsAttributed })
	o.RegisterSampled("monitor.cycles", func() uint64 { return m.st.MonitorCycles })
}

// SetClassifier installs the placement classifier used to attribute
// sampled misses to co-allocation placement variants.
func (m *Monitor) SetClassifier(fn func(addr uint64) (coalloced, gapped bool)) {
	m.classify = fn
}

// AddObserver registers a callback run after each poll has updated the
// counters (the co-allocation policy's feedback hook).
func (m *Monitor) AddObserver(fn func(nowCycles uint64)) {
	m.observers = append(m.observers, fn)
}

// SampleFunc receives one decoded sample: the faulting PC and data
// address, the method the PC was attributed to, and the hardware
// sampling interval in effect (each sample statistically represents
// that many events).
type SampleFunc func(pc, dataAddr uint64, methodID int, interval uint64)

// AddSink registers a per-sample consumer invoked during decode, after
// method attribution and before field attribution — the kind-agnostic
// routing seam optimizations that care about code placement (rather
// than reference fields) hang off. With no sinks registered, decode is
// unchanged.
func (m *Monitor) AddSink(fn SampleFunc) {
	m.sinks = append(m.sinks, fn)
}

// Deadline implements runtime.Ticker.
func (m *Monitor) Deadline() uint64 { return m.deadline }

// Flush performs one final poll outside the ticker schedule, draining
// any samples still buffered when the program ends (the collector
// thread's shutdown read).
func (m *Monitor) Flush() { m.Tick() }

// Tick implements runtime.Ticker: one poll of the collector thread.
func (m *Monitor) Tick() {
	c := m.clock
	startCycles := c.Cycles()
	m.st.Polls++

	// Cross into native code once per poll (pre-allocated array trick).
	c.AddCycles(jniCallCycles)
	n := m.module.ReadSamples(m.buf)
	m.st.SamplesRead += uint64(n)

	interval := m.module.Interval()
	for i := 0; i < n; i++ {
		m.decode(&m.buf[i], interval)
	}
	c.AddCycles(uint64(n) * decodeCyclesPerSample)

	now := c.Cycles()
	m.flushPeriod(now)
	for _, fn := range m.observers {
		fn(now)
	}

	if m.cfg.Auto {
		m.adaptInterval(now)
	}
	m.adaptPollGap(n)
	m.st.MonitorCycles += c.Cycles() - startCycles
	m.deadline = c.Cycles() + m.pollGap
	if m.obs != nil {
		m.obs.Emit(obs.EvMonitorPoll, c.Cycles(), uint64(n), m.st.SamplesDecoded, m.st.SamplesDropped)
		m.obs.PhaseBegin("monitor.poll", startCycles)
		m.obs.PhaseEnd("monitor.poll", c.Cycles())
	}
}

// adaptPollGap sizes the next poll so the sample buffer cannot
// overflow: many samples -> poll sooner, few -> back off (§4.1: "the
// polling interval is adaptively set between 10ms and 1000ms").
func (m *Monitor) adaptPollGap(lastBatch int) {
	switch {
	case lastBatch > batchCapacity/2:
		m.pollGap /= 2
	case lastBatch < batchCapacity/8:
		m.pollGap *= 2
	}
	m.pollGap = min(max(m.pollGap, pollMinCycles), pollMaxCycles)
}

// adaptInterval retargets the hardware sampling interval toward the
// configured samples-per-cycle rate (§6.3's fully autonomous mode).
func (m *Monitor) adaptInterval(now uint64) {
	ustats := m.module.UnitStats()
	dCycles := now - m.lastAutoCycles
	dEvents := ustats.EventsSeen - m.lastAutoEvents
	if dCycles < pollMinCycles {
		return
	}
	m.lastAutoCycles = now
	m.lastAutoEvents = ustats.EventsSeen

	wantSamples := autoTargetPerMCycle * float64(dCycles) / 1e6
	if wantSamples <= 0 {
		return
	}
	iv := uint64(float64(dEvents) / wantSamples)
	m.module.SetInterval(min(max(iv, autoMinInterval), autoMaxInterval))
}

// decode maps one raw sample to source constructs (§4.2).
func (m *Monitor) decode(s *pebs.Sample, interval uint64) {
	body, ok := m.vm.Table.Lookup(s.PC)
	if !ok {
		// Outside JIT-compiled code (VM internals, native library):
		// dropped immediately, as in the paper.
		m.st.SamplesDropped++
		return
	}
	m.st.SamplesDecoded++
	switch {
	case heap.InNursery(s.DataAddr):
		m.st.SamplesNursery++
	case heap.InMature(s.DataAddr):
		m.st.SamplesMature++
	case heap.InLOS(s.DataAddr):
		m.st.SamplesLOS++
	case heap.InImmortal(s.DataAddr):
		m.st.SamplesImmortal++
	default:
		m.st.SamplesOther++
	}

	for _, fn := range m.sinks {
		fn(s.PC, s.DataAddr, body.Method.ID, interval)
	}
	if !body.Opt {
		return
	}
	irID, ok := body.IRAt(s.PC)
	if !ok {
		return
	}
	pairs := m.pairsFor(body)
	f, ok := pairs[irID]
	if !ok {
		return
	}
	fc := m.fields[f.ID]
	if fc == nil {
		fc = &FieldCounter{Field: f}
		fc.Series.Name = f.QualifiedName()
		fc.RateSeries.Name = f.QualifiedName() + ".rate"
		m.fields[f.ID] = fc
	}
	fc.Samples++
	fc.EstimatedMisses += interval
	fc.periodSamples++
	fc.periodWeight += interval
	if m.classify != nil {
		if co, gapped := m.classify(s.DataAddr); co {
			if gapped {
				fc.GappedSamples++
			} else {
				fc.AdjacentSamples++
			}
		}
	}
	m.st.FieldsAttributed++
}

// pairsFor lazily builds the IR-id -> field index for a method body
// from the opt compiler's access-path analysis.
func (m *Monitor) pairsFor(body *mcmap.MCMap) map[int32]*classfile.Field {
	id := body.Method.ID
	if p, ok := m.pairsByMethod[id]; ok {
		return p
	}
	p := make(map[int32]*classfile.Field)
	if info, ok := m.vm.OptInfo(id).(*opt.Result); ok && info != nil {
		for _, pair := range info.Pairs {
			p[int32(pair.S.Seq)] = pair.F
		}
	}
	m.pairsByMethod[id] = p
	return p
}

// flushPeriod closes the current measurement period on every tracked
// field counter, recording both the period's estimated misses and the
// length-normalized rate. Periods are half-open [start, end) over the
// cycle counter: a poll landing on the exact cycle the previous period
// closed at (elapsed == 0, possible only with zero-cost polls) leaves
// the period open rather than flushing a zero-length window — flushing
// would emit a bogus rate point and charge the period's samples to a
// window of length zero. Pinned by TestFlushPeriodBoundary.
func (m *Monitor) flushPeriod(now uint64) {
	elapsed := now - m.lastFlush
	if elapsed == 0 {
		return
	}
	m.lastFlush = now
	// Walk counters in field-ID order: detectPhaseChange appends to the
	// phase-event log, and map order would scramble same-poll entries.
	ids := make([]int, 0, len(m.fields))
	for id := range m.fields {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fc := m.fields[id]
		if m.tracked != nil && !m.tracked[fc.Field.QualifiedName()] {
			fc.periodSamples, fc.periodWeight = 0, 0
			continue
		}
		fc.Series.Add(now, float64(fc.periodWeight))
		fc.RateSeries.Add(now, float64(fc.periodWeight)*1e6/float64(elapsed))
		fc.periodSamples, fc.periodWeight = 0, 0
		m.detectPhaseChange(fc, now)
	}
}

// phaseWindow is the number of periods averaged on each side of the
// phase comparison, and phaseFactor the rate ratio that counts as a
// phase change.
const (
	phaseWindow = 4
	phaseFactor = 4.0
)

// detectPhaseChange compares the mean rate of the last window against
// the previous one and records a phase event on a large shift.
func (m *Monitor) detectPhaseChange(fc *FieldCounter, now uint64) {
	n := fc.RateSeries.Len()
	if n%phaseWindow != 0 || n < 2*phaseWindow {
		return
	}
	vals := fc.RateSeries.Values()
	cur := stats.Mean(vals[n-phaseWindow:])
	prev := stats.Mean(vals[n-2*phaseWindow : n-phaseWindow])
	if fc.prevWindowRate != 0 {
		prev = fc.prevWindowRate
	}
	fc.prevWindowRate = cur
	if prev <= 0 || cur <= 0 {
		return
	}
	ratio := cur / prev
	if ratio >= phaseFactor || ratio <= 1/phaseFactor {
		m.phaseEvents = append(m.phaseEvents,
			fmt.Sprintf("[cycle %d] phase change on %s: %.0f -> %.0f misses/Mcycle",
				now, fc.Field.QualifiedName(), prev, cur))
		if m.obs != nil {
			m.obs.Emit(obs.EvPhaseChange, now, uint64(fc.Field.ID), 0, 0)
		}
	}
}

// PhaseEvents returns the detected phase changes.
func (m *Monitor) PhaseEvents() []string { return m.phaseEvents }

// Field returns the counter for a field, or nil.
func (m *Monitor) Field(f *classfile.Field) *FieldCounter { return m.fields[f.ID] }

// FieldMisses returns the estimated misses charged to a field.
func (m *Monitor) FieldMisses(f *classfile.Field) uint64 {
	if fc := m.fields[f.ID]; fc != nil {
		return fc.EstimatedMisses
	}
	return 0
}

// HotFields returns all attributed fields sorted by estimated misses,
// hottest first — the per-class ranking §5.4's GC consults.
func (m *Monitor) HotFields() []*FieldCounter {
	out := make([]*FieldCounter, 0, len(m.fields))
	for _, fc := range m.fields {
		out = append(out, fc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EstimatedMisses != out[j].EstimatedMisses {
			return out[i].EstimatedMisses > out[j].EstimatedMisses
		}
		return out[i].Field.ID < out[j].Field.ID
	})
	return out
}

// Stats returns a snapshot of monitor activity.
func (m *Monitor) Stats() Stats { return m.st }

// Report renders a small human-readable summary (examples use it).
// topN bounds the hot-field listing; values below zero are treated as
// zero (no listing) rather than slicing with a negative bound.
func (m *Monitor) Report(topN int) string {
	out := fmt.Sprintf("monitor: %d polls, %d samples decoded (%d dropped)\n",
		m.st.Polls, m.st.SamplesDecoded, m.st.SamplesDropped)
	if m.st.SamplesDecoded > 0 {
		out += fmt.Sprintf("  by space: %d nursery, %d mature, %d LOS, %d immortal, %d other\n",
			m.st.SamplesNursery, m.st.SamplesMature, m.st.SamplesLOS,
			m.st.SamplesImmortal, m.st.SamplesOther)
	}
	if topN < 0 {
		topN = 0
	}
	hf := m.HotFields()
	if len(hf) > topN {
		hf = hf[:topN]
	}
	for i, fc := range hf {
		out += fmt.Sprintf("  #%d %-28s %8d samples  ~%d misses\n",
			i+1, fc.Field.QualifiedName(), fc.Samples, fc.EstimatedMisses)
	}
	return out
}
