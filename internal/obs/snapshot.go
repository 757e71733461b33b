package obs

import (
	"fmt"
	"slices"
	"strings"

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

// state is the observer's wire form. The Observer itself is a mutex,
// atomics and a ring, so it is never walked (or copied): Snapshot fills
// a state under the lock, Restore decodes one and then commits it under
// the lock.
type state struct {
	counters map[string]uint64 // owned counters by name
	capacity uint64            // ring size; both sides must agree on it
	emitted  uint64
	dropped  uint64
	events   []Event      // oldest first
	phases   []phaseTrack // by name
}

func (s *state) walk(c *snap.Codec) {
	snap.Map(c, &s.counters, snap.Pair((*snap.Codec).String, (*snap.Codec).U64))
	c.Same(s.capacity, "trace ring capacity")
	c.U64(&s.emitted)
	c.U64(&s.dropped)
	snap.Slice(c, &s.events, func(c *snap.Codec, e *Event) {
		c.U64(&e.Cycle)
		snap.Int(c, &e.Kind)
		c.U64(&e.Arg0)
		c.U64(&e.Arg1)
		c.U64(&e.Arg2)
	})
	c.Check(uint64(len(s.events)) <= s.capacity, "%d events exceed ring capacity %d", len(s.events), s.capacity)
	snap.Slice(c, &s.phases, func(c *snap.Codec, p *phaseTrack) {
		c.String(&p.name)
		c.U64(&p.count)
		c.U64(&p.cycles)
		c.Bool(&p.open)
		c.U64(&p.start)
	})
}

// Snapshot serializes the observer's state.
func (o *Observer) Snapshot() snap.ComponentState {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := state{
		counters: make(map[string]uint64),
		capacity: uint64(len(o.trace.buf)),
		emitted:  o.trace.emitted,
		dropped:  o.trace.dropped,
		events:   o.trace.events(),
	}
	for _, e := range o.entries {
		if e.owned != nil {
			s.counters[e.name] = e.owned.Value()
		}
	}
	for _, p := range o.phases {
		s.phases = append(s.phases, *p)
	}
	slices.SortFunc(s.phases, func(a, b phaseTrack) int { return strings.Compare(a.name, b.name) })
	return snap.Encode(snapComponent, snapVersion, s.walk)
}

// Restore overwrites the observer's state. Every owned counter named in
// the snapshot must already be registered as owned (registration is a
// boot-time act, and restore requires an identically booted system);
// owned counters absent from the snapshot are reset to zero.
func (o *Observer) Restore(st snap.ComponentState) error {
	// The ring is sized once, by New, so its length needs no lock.
	s := state{capacity: uint64(len(o.trace.buf))}
	if err := snap.Decode(st, snapComponent, snapVersion, s.walk); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for name := range s.counters {
		i, ok := o.byName[name]
		if !ok || o.entries[i].owned == nil {
			return fmt.Errorf("obs: %w: counter %q not registered as owned", snap.ErrDecode, name)
		}
	}
	for _, e := range o.entries {
		if e.owned != nil {
			e.owned.v.Store(s.counters[e.name])
		}
	}
	o.trace.start = 0
	o.trace.n = len(s.events)
	copy(o.trace.buf, s.events)
	o.trace.emitted = s.emitted
	o.trace.dropped = s.dropped
	for _, p := range o.phases {
		*p = phaseTrack{name: p.name}
	}
	for _, p := range s.phases {
		*o.phase(p.name) = p
	}
	return nil
}
