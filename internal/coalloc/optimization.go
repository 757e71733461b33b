package coalloc

import (
	"hpmvm/internal/gc/genms"
	"hpmvm/internal/monitor"
	"hpmvm/internal/obs"
	"hpmvm/internal/opt"
)

// This file is the policy's state machine, driven by the opt.Manager
// through the opt.Optimization interface. Each monitor poll runs three
// phases in a fixed order, and the golden corpus pins every decision
// they produce and the events the manager traces and records for them:
//
//   - Analyze scans the hot fields for activations and, once
//     GapAtCycle has passed, the active fields for the Figure 8
//     intervention — without enacting either. Activations proposed
//     earlier in the same poll are visible to later candidates through
//     an overlay of the per-class hottest-field table, so deferring the
//     mutation to Apply changes no outcome.
//   - Apply enacts one activation or intervention.
//   - OpenDecisions/Assess/Revert judge every active field in field-ID
//     order: the A/B comparison first (a revert ends that field's
//     assessment for the poll), then the rate-based fallback.
//
// Analyze creates idle fieldState entries for sampled fields; those
// entries are part of the snapshot format.
var _ opt.Optimization = (*Policy)(nil)

func init() {
	opt.Register(opt.Describe(opt.KindCoalloc, snapComponent, opt.Requirements{NeedsGenMS: true},
		func() Config { return Config{} }, func(c Config) Config { return c }, newManaged))
}

// newManaged builds the policy for an opt.Manager to drive — the
// manager observes the monitor and calls the Optimization methods; the
// policy registers no observer of its own — and makes it the GenMS
// collector's placement advisor.
func newManaged(env opt.Env, cfg Config) *Policy {
	p := &Policy{
		cfg:     cfg,
		mon:     env.Monitor,
		byClass: make(map[int]*fieldState),
		fields:  make(map[int]*fieldState),
	}
	if ms, ok := env.VM.Collector.(*genms.Collector); ok {
		ms.SetAdvisor(p)
		env.Monitor.SetClassifier(ms.ClassifyAddr)
	}
	return p
}

// Kind implements opt.Optimization.
func (p *Policy) Kind() string { return opt.KindCoalloc }

// MonitorWindow implements opt.Optimization. The policy assesses on
// every poll: its A/B comparison gates itself on attributed sample
// counts rather than elapsed polls.
func (p *Policy) MonitorWindow() uint64 { return 0 }

// activation carries one pending activation from Analyze to Apply.
type activation struct {
	st  *fieldState
	fc  *monitor.FieldCounter
	top bool
}

// intervention carries one pending Figure 8 intervention.
type intervention struct {
	st *fieldState
}

// Analyze implements opt.Optimization: the activation scan and the
// intervention scan, computed without side effects beyond fieldState
// bookkeeping entries.
func (p *Policy) Analyze(now uint64) []opt.Proposal {
	var out []opt.Proposal
	// Overlay of byClass assignments made by activations proposed this
	// poll: a later field of the same class competes against the
	// earlier activation's misses, not the pre-poll table.
	var overlay map[int]*fieldState
	pending := map[int]bool{}
	for _, fc := range p.mon.HotFields() {
		f := fc.Field
		st := p.fields[f.ID]
		if st == nil {
			st = &fieldState{field: f}
			p.fields[f.ID] = st
		}
		if st.mode == modeIdle && fc.Samples >= minSamples {
			cur := p.byClass[f.Class.ID]
			if overlay != nil && overlay[f.Class.ID] != nil {
				cur = overlay[f.Class.ID]
			}
			top := cur == nil || p.mon.FieldMisses(f) > p.mon.FieldMisses(cur.field)
			if top || p.cfg.Ranked {
				if top {
					if overlay == nil {
						overlay = make(map[int]*fieldState)
					}
					overlay[f.Class.ID] = st
				}
				pending[f.ID] = true
				out = append(out, opt.Proposal{
					Target: f.ID,
					Label:  f.QualifiedName(),
					Code:   obs.DecisionActivate,
					State:  &activation{st: st, fc: fc, top: top},
				})
			}
		}
	}

	// Figure 8 intervention scan. It follows the activation phase, so
	// fields activated this poll are eligible too when the configured
	// activation gap is zero. The intervention stays pending until at
	// least one active placement exists to apply it to.
	if p.cfg.GapAtCycle > 0 && !p.intervened && now >= p.cfg.GapAtCycle {
		for _, st := range p.sortedFields() {
			eligible := st.mode == modeActive && st.gap == 0
			if !eligible && pending[st.field.ID] && p.cfg.Gap == 0 {
				eligible = true
			}
			if eligible {
				out = append(out, opt.Proposal{
					Target: st.field.ID,
					Label:  st.field.QualifiedName(),
					Code:   obs.DecisionIntervene,
					State:  &intervention{st: st},
				})
			}
		}
	}
	return out
}

// Apply implements opt.Optimization: enact one activation or the
// Figure 8 manual intervention ("we then instructed the GC manually to
// place one cache line of empty space between the String and the char[]
// objects"). The baseline is the field's miss rate before it.
func (p *Policy) Apply(now uint64, pr opt.Proposal) float64 {
	if a, ok := pr.State.(*activation); ok {
		st, fc := a.st, a.fc
		st.mode = modeActive
		st.gap = p.cfg.Gap
		st.baselineRate = tailMean(&fc.RateSeries, evalPeriods)
		st.activatedAt = fc.RateSeries.Len()
		if a.top {
			p.byClass[st.field.Class.ID] = st
		}
		return st.baselineRate
	}
	st := pr.State.(*intervention).st
	p.intervened = true
	st.gap = gapBytes
	if fc := p.mon.Field(st.field); fc != nil {
		st.baselineRate = tailMean(&fc.RateSeries, evalPeriods)
		st.activatedAt = fc.RateSeries.Len()
		st.abMarkAdj = fc.AdjacentSamples
		st.abMarkGap = fc.GappedSamples
	}
	return st.baselineRate
}

// OpenDecisions implements opt.Optimization: every active field in
// field-ID order.
func (p *Policy) OpenDecisions() []*opt.Decision {
	var out []*opt.Decision
	for _, st := range p.sortedFields() {
		if st.mode != modeActive {
			continue
		}
		out = append(out, &opt.Decision{Target: st.field.ID, Label: st.field.QualifiedName(), State: st})
	}
	return out
}

// Assess implements opt.Optimization: the per-field judgment. A bad
// A/B verdict suppresses the rate fallback for that field this poll.
// Every other outcome leaves the placement open: it is judged again on
// the next poll.
func (p *Policy) Assess(now uint64, d *opt.Decision) opt.Assessment {
	var open opt.Assessment
	st := d.State.(*fieldState)
	fc := p.mon.Field(st.field)
	if fc == nil {
		return open
	}
	// A/B assessment between placement variants, over the window since
	// the last placement change.
	dAdj := fc.AdjacentSamples - st.abMarkAdj
	dGap := fc.GappedSamples - st.abMarkGap
	if st.gap > 0 && st.pairsAdj > 0 && st.pairsGapped > 0 &&
		dAdj+dGap >= minABSamples {
		// Laplace smoothing: a well-placed pair population often
		// produces zero samples (its child accesses hit — that is the
		// point of co-allocation), and an absent denominator must not
		// mask the signal.
		perAdj := (float64(dAdj) + 0.5) / float64(st.pairsAdj)
		perGap := float64(dGap) / float64(st.pairsGapped)
		if perGap > perAdj*abRatio {
			return opt.Assessment{
				Verdict: opt.VerdictBad,
				Reason:  obs.DecisionRevertAB,
				A:       perGap,
				B:       perAdj,
			}
		}
	}
	// Rate-based fallback for gapped placements whose A/B comparison
	// has no adjacent population (gap configured from the start): a
	// gross rate regression drops the gap. Adjacent placements are never
	// reverted on rate alone — a raw before/after rate comparison cannot
	// distinguish a bad placement from a program phase change, and the
	// paper reports no case where undoing a plain co-allocation was
	// needed.
	if st.gap == 0 || st.pairsGapped == 0 {
		return open
	}
	elapsed := fc.RateSeries.Len() - st.activatedAt
	if elapsed < evalPeriods {
		return open
	}
	current := tailMean(&fc.RateSeries, evalPeriods)
	if st.baselineRate > 0 && current > st.baselineRate*regressionFactor {
		return opt.Assessment{
			Verdict: opt.VerdictBad,
			Reason:  obs.DecisionRevertRate,
			A:       current,
			B:       st.baselineRate,
		}
	}
	return open
}

// Revert implements opt.Optimization: switch the field back to
// adjacent placement, with the bookkeeping the assessment's reason code
// calls for.
func (p *Policy) Revert(now uint64, d *opt.Decision, a opt.Assessment) {
	st := d.State.(*fieldState)
	fc := p.mon.Field(st.field)
	switch a.Reason {
	case obs.DecisionRevertAB:
		st.gap = 0
		st.reverts++
		st.abMarkAdj = fc.AdjacentSamples
		st.abMarkGap = fc.GappedSamples
	case obs.DecisionRevertRate:
		st.reverts++
		st.gap = 0
		st.baselineRate = a.A
		st.activatedAt = fc.RateSeries.Len()
	}
}
