// Package obs is the unified observability layer: a zero-dependency
// counter registry plus a structured event trace shared by every layer
// of the simulated system (memory hierarchy, PEBS unit, perfmon
// module, monitor, GC, optimization manager, VM).
//
// The paper's premise is that cheap, always-on hardware monitoring can
// drive online decisions; debugging and comparing such a system needs
// an equally uniform view of what every layer did and when. Before
// this package each subsystem kept an ad-hoc Stats struct with its own
// snapshot call, no common timeline, and no export path. An Observer
// gives them one substrate:
//
//   - Counters: named monotonic uint64 counters, either owned
//     (Counter, updated by the producer) or sampled (RegisterSampled, a
//     closure over an existing stats field read only at snapshot time
//     so the producer's hot path is untouched).
//   - Trace: a fixed-size ring buffer of typed events (GC start/stop,
//     PEBS overflow interrupts, perfmon copy-outs, optimization
//     decisions and reverts, recompilations, cache-window snapshots),
//     each stamped with the simulated cycle it occurred at.
//   - Phases: named begin/end intervals aggregated into a per-phase
//     timeline (count + total simulated cycles), e.g. minor/major GC
//     and monitor polls.
//
// Overhead contract: the layer is strictly an outside observer of the
// simulated machine. No Observer method charges simulated cycles, so
// enabling it cannot perturb simulated cycle counts or experiment
// output. The disabled path in every producer is a nil pointer check
// (the same discipline as the cache event-listener gating), so with
// observability off the producers pay nothing.
//
// An Observer is safe for concurrent use: the parallel experiment
// engine gives every run its own Observer, but host-side consumers
// (progress callbacks, the bench engine) may snapshot while a run's
// producers emit.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is one owned, monotonically increasing counter. The zero
// Counter is unusable; obtain counters from Observer.Counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// entry is one registered counter: owned or sampled.
type entry struct {
	name    string
	owned   *Counter
	sampled func() uint64
}

// phaseTrack aggregates one named phase's begin/end intervals.
type phaseTrack struct {
	name   string
	count  uint64
	cycles uint64
	open   bool
	start  uint64
}

// DefaultTraceCapacity is the event-ring size used when New is given a
// non-positive capacity: 4096 events ≈ the largest traces the §6
// experiments produce, small enough to stay resident.
const DefaultTraceCapacity = 4096

// Observer is the shared observability hub. See the package comment
// for the model.
type Observer struct {
	mu      sync.Mutex
	byName  map[string]int
	entries []entry

	trace Trace

	phaseByName map[string]int
	phases      []*phaseTrack
}

// New returns an Observer whose trace ring holds capacity events
// (non-positive selects DefaultTraceCapacity).
func New(capacity int) *Observer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Observer{
		byName:      make(map[string]int),
		trace:       Trace{buf: make([]Event, capacity)},
		phaseByName: make(map[string]int),
	}
}

// Counter returns the owned counter registered under name, creating it
// on first use. Registering a name already claimed by a sampled
// counter panics: names are a flat namespace and a collision is a
// wiring bug.
func (o *Observer) Counter(name string) *Counter {
	o.mu.Lock()
	defer o.mu.Unlock()
	if i, ok := o.byName[name]; ok {
		if o.entries[i].owned == nil {
			panic(fmt.Sprintf("obs: counter %q already registered as sampled", name))
		}
		return o.entries[i].owned
	}
	c := &Counter{}
	o.byName[name] = len(o.entries)
	o.entries = append(o.entries, entry{name: name, owned: c})
	return c
}

// RegisterSampled registers a counter whose value is read from fn only
// at snapshot time — the way producers export existing stats fields
// without adding a single instruction to their hot paths. fn must be
// safe to call whenever Snapshot is. Duplicate names panic.
func (o *Observer) RegisterSampled(name string, fn func() uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.byName[name]; ok {
		panic(fmt.Sprintf("obs: duplicate counter %q", name))
	}
	o.byName[name] = len(o.entries)
	o.entries = append(o.entries, entry{name: name, sampled: fn})
}

// Emit appends one event to the trace ring, overwriting the oldest
// event when full (Dropped counts the overwrites). cycle is the
// simulated cycle counter at the time of the event.
func (o *Observer) Emit(kind EventKind, cycle, arg0, arg1, arg2 uint64) {
	o.mu.Lock()
	o.trace.emit(Event{Cycle: cycle, Kind: kind, Arg0: arg0, Arg1: arg1, Arg2: arg2})
	o.mu.Unlock()
}

// Events returns the traced events oldest-first.
func (o *Observer) Events() []Event {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.trace.events()
}

// TraceDump returns the trace contents plus its drop accounting, ready
// for export.
func (o *Observer) TraceDump() TraceDump {
	o.mu.Lock()
	defer o.mu.Unlock()
	return TraceDump{
		Events:   o.trace.events(),
		Capacity: len(o.trace.buf),
		Emitted:  o.trace.emitted,
		Dropped:  o.trace.dropped,
	}
}

// PhaseBegin opens the named phase at the given cycle. A begin while
// the phase is already open restarts it (the previous open interval is
// discarded) — producers are expected to pair begin/end.
func (o *Observer) PhaseBegin(name string, cycle uint64) {
	o.mu.Lock()
	p := o.phase(name)
	p.open = true
	p.start = cycle
	o.mu.Unlock()
}

// PhaseEnd closes the named phase at the given cycle, accumulating the
// interval into the phase's timeline. An end without a matching begin
// is ignored.
func (o *Observer) PhaseEnd(name string, cycle uint64) {
	o.mu.Lock()
	p := o.phase(name)
	if p.open {
		p.open = false
		p.count++
		if cycle > p.start {
			p.cycles += cycle - p.start
		}
	}
	o.mu.Unlock()
}

// phase returns the track for name, creating it; callers hold o.mu.
func (o *Observer) phase(name string) *phaseTrack {
	if i, ok := o.phaseByName[name]; ok {
		return o.phases[i]
	}
	p := &phaseTrack{name: name}
	o.phaseByName[name] = len(o.phases)
	o.phases = append(o.phases, p)
	return p
}

// CounterValue is one resolved counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// PhaseStat is one phase's aggregated timeline.
type PhaseStat struct {
	Name   string `json:"name"`
	Count  uint64 `json:"count"`
	Cycles uint64 `json:"cycles"`
}

// TraceStats summarizes the trace ring's accounting.
type TraceStats struct {
	Capacity int    `json:"capacity"`
	Emitted  uint64 `json:"emitted"`
	Dropped  uint64 `json:"dropped"`
}

// Metrics is a full counter/phase snapshot — the export unit of the
// registry. Counters and phases are sorted by name so snapshots are
// deterministic regardless of registration order.
type Metrics struct {
	Counters []CounterValue `json:"counters"`
	Phases   []PhaseStat    `json:"phases"`
	Trace    TraceStats     `json:"trace"`
}

// Metrics resolves every registered counter (owned values loaded,
// sampled closures invoked) and phase into a Metrics value. (The name
// Snapshot belongs to the snap.Checkpointable implementation in
// snapshot.go, which serializes the observer's state instead.)
func (o *Observer) Metrics() Metrics {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := Metrics{
		Counters: make([]CounterValue, 0, len(o.entries)),
		Phases:   make([]PhaseStat, 0, len(o.phases)),
		Trace: TraceStats{
			Capacity: len(o.trace.buf),
			Emitted:  o.trace.emitted,
			Dropped:  o.trace.dropped,
		},
	}
	for _, e := range o.entries {
		v := CounterValue{Name: e.name}
		if e.owned != nil {
			v.Value = e.owned.Value()
		} else {
			v.Value = e.sampled()
		}
		m.Counters = append(m.Counters, v)
	}
	for _, p := range o.phases {
		m.Phases = append(m.Phases, PhaseStat{Name: p.name, Count: p.count, Cycles: p.cycles})
	}
	sort.Slice(m.Counters, func(i, j int) bool { return m.Counters[i].Name < m.Counters[j].Name })
	sort.Slice(m.Phases, func(i, j int) bool { return m.Phases[i].Name < m.Phases[j].Name })
	return m
}

// Get returns the current value of the named counter (owned or
// sampled) and whether it exists.
func (o *Observer) Get(name string) (uint64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	i, ok := o.byName[name]
	if !ok {
		return 0, false
	}
	if e := o.entries[i]; e.owned != nil {
		return e.owned.Value(), true
	}
	return o.entries[i].sampled(), true
}
