package obs

import (
	"fmt"
	"sort"

	"hpmvm/internal/snap"
)

// Snapshot/Restore implement snap.Checkpointable for the observer: the
// owned counter values (by name), the trace ring contents and drop
// accounting, and the phase timelines. Sampled counters are closures
// over producer stats and are not serialized — restoring the producers
// restores their values. Restore runs LAST in core.System.Restore so
// that any events or counter updates fired while earlier components
// replayed (e.g. the VM's recompile-log replay emitting EvRecompile)
// are overwritten with the origin's exact trace.

const (
	snapComponent = "obs"
	snapVersion   = 1
)

// Snapshot serializes the observer's state.
func (o *Observer) Snapshot() snap.ComponentState {
	o.mu.Lock()
	defer o.mu.Unlock()
	var w snap.Writer

	names := make([]string, 0, len(o.entries))
	for _, e := range o.entries {
		if e.owned != nil {
			names = append(names, e.name)
		}
	}
	sort.Strings(names)
	w.U64(uint64(len(names)))
	for _, name := range names {
		w.String(name)
		w.U64(o.entries[o.byName[name]].owned.Value())
	}

	events := o.trace.events()
	w.U64(uint64(len(o.trace.buf)))
	w.U64(o.trace.emitted)
	w.U64(o.trace.dropped)
	w.U64(uint64(len(events)))
	for _, e := range events {
		w.U64(e.Cycle)
		w.U64(uint64(e.Kind))
		w.U64(e.Arg0)
		w.U64(e.Arg1)
		w.U64(e.Arg2)
	}

	phaseNames := make([]string, 0, len(o.phases))
	for _, p := range o.phases {
		phaseNames = append(phaseNames, p.name)
	}
	sort.Strings(phaseNames)
	w.U64(uint64(len(phaseNames)))
	for _, name := range phaseNames {
		p := o.phases[o.phaseByName[name]]
		w.String(name)
		w.U64(p.count)
		w.U64(p.cycles)
		w.Bool(p.open)
		w.U64(p.start)
	}
	return snap.ComponentState{Component: snapComponent, Version: snapVersion, Data: w.Bytes()}
}

// Restore overwrites the observer's state. Every owned counter named in
// the snapshot must already be registered as owned (registration is a
// boot-time act, and restore requires an identically booted system);
// owned counters absent from the snapshot are reset to zero.
func (o *Observer) Restore(st snap.ComponentState) error {
	if err := snap.Check(st, snapComponent, snapVersion); err != nil {
		return err
	}
	r := snap.NewReader(st.Data)
	nCounters := r.Count(16)
	counters := make(map[string]uint64, nCounters)
	for i := 0; i < nCounters; i++ {
		name := r.String()
		counters[name] = r.U64()
	}
	capacity := r.U64()
	emitted := r.U64()
	dropped := r.U64()
	nEvents := r.Count(40)
	if r.Err() == nil && uint64(nEvents) > capacity {
		return fmt.Errorf("obs: %w: %d events exceed ring capacity %d", snap.ErrDecode, nEvents, capacity)
	}
	events := make([]Event, 0, nEvents)
	for i := 0; i < nEvents; i++ {
		var e Event
		e.Cycle = r.U64()
		e.Kind = EventKind(r.U64())
		e.Arg0 = r.U64()
		e.Arg1 = r.U64()
		e.Arg2 = r.U64()
		events = append(events, e)
	}
	type phaseState struct {
		name   string
		count  uint64
		cycles uint64
		open   bool
		start  uint64
	}
	nPhases := r.Count(33)
	phases := make([]phaseState, 0, nPhases)
	for i := 0; i < nPhases; i++ {
		var p phaseState
		p.name = r.String()
		p.count = r.U64()
		p.cycles = r.U64()
		p.open = r.Bool()
		p.start = r.U64()
		phases = append(phases, p)
	}
	if err := r.Close(); err != nil {
		return err
	}

	o.mu.Lock()
	defer o.mu.Unlock()
	if uint64(len(o.trace.buf)) != capacity {
		return fmt.Errorf("obs: %w: trace capacity %d, snapshot capacity %d",
			snap.ErrDecode, len(o.trace.buf), capacity)
	}
	for name := range counters {
		i, ok := o.byName[name]
		if !ok || o.entries[i].owned == nil {
			return fmt.Errorf("obs: %w: counter %q not registered as owned", snap.ErrDecode, name)
		}
	}
	for _, e := range o.entries {
		if e.owned != nil {
			e.owned.v.Store(counters[e.name])
		}
	}
	o.trace.start = 0
	o.trace.n = len(events)
	copy(o.trace.buf, events)
	o.trace.emitted = emitted
	o.trace.dropped = dropped
	for _, p := range o.phases {
		p.count, p.cycles, p.open, p.start = 0, 0, false, 0
	}
	for _, ps := range phases {
		p := o.phase(ps.name)
		p.count = ps.count
		p.cycles = ps.cycles
		p.open = ps.open
		p.start = ps.start
	}
	return nil
}
