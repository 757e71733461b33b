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
	"sort"

	"hpmvm/internal/gc/genms"
	"hpmvm/internal/monitor"
	"hpmvm/internal/stats"
	"hpmvm/internal/vm/classfile"
)

// Config selects the policy's placement variant. The zero value is the
// policy the reported experiments run: adjacent placement through each
// class's single hottest field, no intervention.
type Config struct {
	// Gap is the placement gap applied from activation on (normally 0;
	// non-zero reproduces ablations where every pair is gapped).
	Gap uint64

	// GapAtCycle, when non-zero, is the Figure 8 manual intervention:
	// once the cycle counter passes it, newly placed pairs of active
	// fields get one cache line (gapBytes) of padding — "we then
	// instructed the GC manually to place one cache line of empty space
	// between the String and the char[] objects".
	GapAtCycle uint64

	// Ranked enables the full §5.4 per-class candidate list: every
	// sufficiently sampled reference field becomes a candidate, and
	// the collector falls back from the hottest field to the next when
	// a child is ineligible (already promoted, too large, ...).
	Ranked bool
}

// The policy's operating point.
const (
	// minSamples is the number of attributed samples a field needs
	// before it is considered hot enough to drive co-allocation (a
	// statistically meaningless single sample must not retune the GC).
	minSamples = 8

	// gapBytes is the padding of the Figure 8 intervention.
	gapBytes = 128

	// Revert heuristic. With both placement variants observed, the
	// policy reverts the gapped placement when gapped pairs attract
	// more than abRatio times the misses-per-pair of adjacent pairs
	// (after minABSamples variant-attributed samples). Without an A/B
	// population, it falls back to comparing the field's miss rate over
	// the last evalPeriods polls against the rate at activation and
	// reverts on a regression beyond regressionFactor.
	abRatio          = 1.4
	minABSamples     = 12
	evalPeriods      = 6
	regressionFactor = 2.5
)

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
// machine (optimization.go) proposes and assesses in this order, so
// walking the map directly would leak map iteration order into the
// manager's decision records.
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
