// Package coalloc implements the HPM-guided co-allocation policy of
// §5: it ranks each class's reference fields by the cache misses the
// monitor attributes to them, advises the GenMS collector which child
// object to co-allocate with a promoted parent, and runs the online
// effectiveness assessment of §5.3/Figure 8.
//
// The assessment exploits the precise association of miss events with
// object placements ("the precise association of the miss events with
// object types and references allows the VM to assess the effect of
// individual optimization decisions"): every sampled miss whose data
// address falls inside a co-allocated cell is attributed to that
// cell's placement variant (adjacent vs gapped), and the policy
// A/B-compares misses per pair between variants — a signal that is
// robust against program phase changes, unlike a raw before/after rate
// comparison. A rate-based fallback covers the case where only one
// variant exists.
package coalloc

import (
	"fmt"
	"sort"

	"hpmvm/internal/gc/genms"
	"hpmvm/internal/monitor"
	"hpmvm/internal/obs"
	"hpmvm/internal/stats"
	"hpmvm/internal/vm/classfile"
)

// Config tunes the policy.
type Config struct {
	// MinSamples is the number of attributed samples a field needs
	// before it is considered hot enough to drive co-allocation (a
	// statistically meaningless single sample must not retune the GC).
	MinSamples uint64

	// Gap is the placement gap applied from activation on (normally 0;
	// non-zero reproduces ablations where every pair is gapped).
	Gap uint64

	// GapAtCycle, when non-zero, is the Figure 8 manual intervention:
	// once the cycle counter passes it, newly placed pairs of active
	// fields get one cache line (GapBytes) of padding — "we then
	// instructed the GC manually to place one cache line of empty
	// space between the String and the char[] objects".
	GapAtCycle uint64
	// GapBytes is the padding used by the intervention (default 128).
	GapBytes uint64

	// Revert heuristic. With both placement variants observed, the
	// policy reverts the gapped placement when gapped pairs attract
	// more than ABRatio times the misses-per-pair of adjacent pairs
	// (after MinABSamples variant-attributed samples). Without an A/B
	// population, it falls back to comparing the field's miss rate
	// against the rate at activation and reverts on a regression
	// beyond RegressionFactor.
	ABRatio          float64
	MinABSamples     uint64
	EvalPeriods      int
	RegressionFactor float64

	// RevertEnabled turns the online assessment on.
	RevertEnabled bool

	// Ranked enables the full §5.4 per-class candidate list: every
	// sufficiently sampled reference field becomes a candidate, and
	// the collector falls back from the hottest field to the next when
	// a child is ineligible (already promoted, too large, ...). Off by
	// default: the plain policy co-allocates only through the single
	// hottest field per class, which is what the reported experiments
	// use.
	Ranked bool
}

// DefaultConfig returns the standard policy settings.
func DefaultConfig() Config {
	return Config{
		MinSamples:       8,
		Gap:              0,
		GapBytes:         128,
		ABRatio:          1.4,
		MinABSamples:     12,
		EvalPeriods:      6,
		RegressionFactor: 2.5,
		RevertEnabled:    true,
	}
}

// fieldMode is the per-field placement state machine. A field never
// leaves modeActive: a revert drops its gap and keeps it co-allocating.
type fieldMode int

const (
	modeIdle   fieldMode = iota // not yet hot
	modeActive                  // co-allocating
)

func (m fieldMode) String() string {
	if m == modeActive {
		return "active"
	}
	return "idle"
}

// fieldState tracks one reference field's decision history.
type fieldState struct {
	field *classfile.Field
	mode  fieldMode
	gap   uint64 // current placement gap for new pairs

	baselineRate float64
	activatedAt  int
	pairsAdj     uint64
	pairsGapped  uint64
	reverts      int
	// A/B sample marks: variant-attributed sample counts at the last
	// placement change, so assessments use deltas that compare the
	// same observation window.
	abMarkAdj uint64
	abMarkGap uint64
}

// Policy implements genms.Advisor over monitor feedback.
type Policy struct {
	cfg Config
	mon *monitor.Monitor

	byClass map[int]*fieldState
	fields  map[int]*fieldState

	intervened bool
	events     []string

	// obs, when non-nil, receives an EvCoallocDecision event per
	// activation, revert and intervention (nil-gated).
	obs *obs.Observer
}

// SetObserver attaches the observability layer: decision counts are
// registered and every placement decision is traced. Passing nil
// detaches.
func (p *Policy) SetObserver(o *obs.Observer) {
	p.obs = o
	if o == nil {
		return
	}
	o.RegisterSampled("coalloc.active_fields", func() uint64 {
		var n uint64
		for _, st := range p.fields {
			if st.mode == modeActive {
				n++
			}
		}
		return n
	})
	o.RegisterSampled("coalloc.reverts", func() uint64 {
		var n uint64
		for _, st := range p.fields {
			n += uint64(st.reverts)
		}
		return n
	})
}

// decided traces one policy decision (no-op without an observer).
func (p *Policy) decided(now uint64, f *classfile.Field, gap, code uint64) {
	if p.obs != nil {
		p.obs.Emit(obs.EvCoallocDecision, now, uint64(f.ID), gap, code)
	}
}

// hottestField is the plain policy's one candidate. Field states are
// registered under the declaring class; instances of subclasses inherit
// the decision.
func (p *Policy) hottestField(cl *classfile.Class) (*classfile.Field, uint64) {
	var st *fieldState
	for c := cl; c != nil; c = c.Super {
		if s := p.byClass[c.ID]; s != nil {
			st = s
			break
		}
	}
	if st == nil || st.mode != modeActive {
		return nil, 0
	}
	return st.field, st.gap
}

// Candidates implements genms.Advisor: the per-class candidate list of
// §5.4, hottest first. With Config.Ranked off it degenerates to the
// single hottest field, preserving the plain policy's behavior.
func (p *Policy) Candidates(cl *classfile.Class) []genms.Candidate {
	if !p.cfg.Ranked {
		if f, gap := p.hottestField(cl); f != nil {
			return []genms.Candidate{{Field: f, Gap: gap}}
		}
		return nil
	}
	var states []*fieldState
	for _, st := range p.fields {
		if st.mode != modeActive {
			continue
		}
		for c := cl; c != nil; c = c.Super {
			if st.field.Class == c {
				states = append(states, st)
				break
			}
		}
	}
	sort.Slice(states, func(i, j int) bool {
		mi, mj := p.mon.FieldMisses(states[i].field), p.mon.FieldMisses(states[j].field)
		if mi != mj {
			return mi > mj
		}
		return states[i].field.ID < states[j].field.ID
	})
	out := make([]genms.Candidate, len(states))
	for i, st := range states {
		out[i] = genms.Candidate{Field: st.field, Gap: st.gap}
	}
	return out
}

// CoallocationPerformed implements genms.Advisor.
func (p *Policy) CoallocationPerformed(f *classfile.Field, gap uint64) {
	if st := p.fields[f.ID]; st != nil {
		if gap > 0 {
			st.pairsGapped++
		} else {
			st.pairsAdj++
		}
	}
}

// sortedFields returns the field states in field-ID order. The state
// machine (optimization.go) logs as it walks the states, so walking the
// map directly would leak map iteration order into the decision log.
func (p *Policy) sortedFields() []*fieldState {
	out := make([]*fieldState, 0, len(p.fields))
	for _, st := range p.fields {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].field.ID < out[j].field.ID })
	return out
}

// tailMean averages the last n values of a series (its recent rate).
func tailMean(s *stats.Series, n int) float64 {
	vals := s.Values()
	if len(vals) == 0 {
		return 0
	}
	if len(vals) > n {
		vals = vals[len(vals)-n:]
	}
	return stats.Mean(vals)
}

func (p *Policy) logf(now uint64, format string, args ...any) {
	p.events = append(p.events, fmt.Sprintf("[cycle %d] %s", now, fmt.Sprintf(format, args...)))
}

// Log implements opt.Optimization: the decision log.
func (p *Policy) Log() []string { return p.events }

// Decision describes a field's current placement state.
type Decision struct {
	Field   *classfile.Field
	Mode    string
	Gap     uint64
	Pairs   uint64
	Reverts int
}

// Decisions lists the per-field states in field order.
func (p *Policy) Decisions() []Decision {
	var out []Decision
	for _, st := range p.fields {
		out = append(out, Decision{
			Field: st.field, Mode: st.mode.String(), Gap: st.gap,
			Pairs: st.pairsAdj + st.pairsGapped, Reverts: st.reverts,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Field.ID < out[j].Field.ID })
	return out
}
