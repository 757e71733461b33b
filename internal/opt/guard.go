package opt

import (
	"hpmvm/internal/monitor"
	"hpmvm/internal/obs"
	"hpmvm/internal/snap"
)

// guardParams are the knobs of the guard family, copied out of the
// embedding kind's config and its per-kind constants (see
// CodeLayoutConfig and codeLayoutRegressionFactor for their meaning).
type guardParams struct {
	MinSamples       uint64
	EvalPeriods      uint64
	RegressionFactor float64
	MinMissRate      float64
	MaxReverts       int
	BadAtCycle       uint64
	Passive          bool
}

// point is one poll's cumulative counters: a denominator (fetches,
// accesses) and the numerators of the two rates the guards consult —
// verdict, the rate decisions are judged on, and floor, the miss rate
// that must show pressure before the kind acts.
type point struct {
	den, verdict, floor uint64
}

// guardState is the mutable, snapshotted half of guarded.
type guardState struct {
	// seen counts raw sample-sink deliveries (the MinSamples gate).
	seen uint64
	// history holds one point per poll; rates difference its tail.
	history []point
	// open is the single decision under assessment, judged against
	// baseline — the verdict rate over the EvalPeriods polls before it
	// was applied.
	open      *Decision
	baseline  float64
	decisions uint64
	reverts   uint64
	// badDone latches the deliberate bad decision: applied once.
	badDone bool
}

// guarded is the guarded-decision helper a kind embeds when it keeps at
// most one decision open and verifies it online against a before/after
// rate (§5.3). It owns everything about that loop that is not the
// decision itself: the per-poll history, the guard prelude, the open
// decision with its baseline, the keep/revert verdict, the counters
// its guards consult and the snapshot codec of all of it. The embedding
// kind supplies what to decide (Analyze's plan) and how to enact and
// undo it; OpenDecisions, MonitorWindow and Assess are promoted to it.
type guarded struct {
	p   guardParams
	mon *monitor.Monitor
	guardState
}

// record appends this poll's cumulative counters to the history.
func (g *guarded) record(den, verdict, floor uint64) {
	g.history = append(g.history, point{den, verdict, floor})
}

// rates returns the verdict and floor rates over the last k polls (both
// 0 when the history is shorter than the window or the window saw no
// events).
func (g *guarded) rates(k uint64) (verdict, floor float64) {
	n := uint64(len(g.history))
	if k == 0 || n < k+1 {
		return 0, 0
	}
	a, b := g.history[n-1-k], g.history[n-1]
	d := b.den - a.den
	if d == 0 {
		return 0, 0
	}
	return float64(b.verdict-a.verdict) / float64(d), float64(b.floor-a.floor) / float64(d)
}

// gate is the guard prelude, run after record on every poll. ok reports
// whether the kind may propose now; inject, whether the proposal must
// be the deliberate bad decision. The guards are side-effect free, so
// their order is fixed here for every kind:
//
//  1. Passive, a decision already open, or fewer than MinSamples samples.
//  2. MaxReverts back-off: repeated reverts are the monitor saying the
//     optimization does not pay on this workload.
//  3. Fewer than 2×EvalPeriods polls of history.
//  4. Warm-up: while cold-start misses dominate, the verdict rate
//     declines steeply and a baseline captured now would overstate
//     steady state, masking a bad decision at assessment. Propose only
//     once the recent window is within 20% of the one twice as long.
//     The bad-decision hook waits this out too — its scenario is a bad
//     call in steady state, judged against an honest baseline.
//  5. The bad-decision hook (BadAtCycle reached, not yet fired).
//  6. The MinMissRate floor: acting costs (cold misses on a fresh code
//     region, prefetch issue cycles), so act only under pressure.
func (g *guarded) gate(now uint64) (inject, ok bool) {
	p := g.p
	if p.Passive || g.open != nil || g.seen < p.MinSamples {
		return false, false
	}
	if p.MaxReverts >= 0 && g.reverts >= uint64(p.MaxReverts) {
		return false, false
	}
	if uint64(len(g.history)) < 2*p.EvalPeriods+1 {
		return false, false
	}
	short, floor := g.rates(p.EvalPeriods)
	if long, _ := g.rates(2 * p.EvalPeriods); short < long*0.8 {
		return false, false
	}
	if p.BadAtCycle != 0 && now >= p.BadAtCycle && !g.badDone {
		return true, true
	}
	return false, floor >= p.MinMissRate
}

// propose wraps a kind's plan as the poll's single proposal, numbered
// by the decision counter.
func (g *guarded) propose(label string, code uint64, plan any) []Proposal {
	return []Proposal{{Target: int(g.decisions), Label: label, Code: code, State: plan}}
}

// opened records that the kind just applied p: the decision opens for
// assessment against the current verdict rate, which is returned as
// Apply's baseline. bad marks the deliberate bad decision.
func (g *guarded) opened(p Proposal, bad bool) (baseline float64) {
	g.baseline, _ = g.rates(g.p.EvalPeriods)
	g.open = &Decision{Target: p.Target, Label: p.Label, AppliedPoll: g.mon.Stats().Polls}
	g.decisions++
	g.badDone = g.badDone || bad
	return g.baseline
}

// Assess implements Optimization: the open decision is bad when the
// verdict rate over the assessment window exceeds baseline ×
// RegressionFactor. A kept decision closes — decisions are judged once,
// like the paper's Figure-7 window; a bad one stays open until the
// kind's Revert calls reverted.
func (g *guarded) Assess(now uint64, d *Decision) Assessment {
	cur, _ := g.rates(g.p.EvalPeriods)
	if g.baseline > 0 && cur > g.baseline*g.p.RegressionFactor {
		return Assessment{Verdict: VerdictBad, Reason: obs.DecisionRevertRate, A: cur, B: g.baseline}
	}
	g.open = nil
	return Assessment{Verdict: VerdictKeep, A: cur, B: g.baseline}
}

// reverted closes the open decision as undone.
func (g *guarded) reverted() {
	g.reverts++
	g.open = nil
}

// MonitorWindow implements Optimization: a decision is first assessed
// EvalPeriods polls after it was applied.
func (g *guarded) MonitorWindow() uint64 { return g.p.EvalPeriods }

// OpenDecisions implements Optimization: at most one decision is
// monitored at a time.
func (g *guarded) OpenDecisions() []*Decision {
	if g.open == nil {
		return nil
	}
	return []*Decision{g.open}
}

// walk is the guard state's snapshot layout. The open decision's State
// payload belongs to the kind, which walks it after this section.
func (s *guardState) walk(c *snap.Codec) {
	c.U64(&s.seen)
	snap.Slice(c, &s.history, func(c *snap.Codec, p *point) {
		c.U64(&p.den)
		c.U64(&p.verdict)
		c.U64(&p.floor)
	})
	c.U64(&s.decisions)
	c.U64(&s.reverts)
	c.Bool(&s.badDone)
	open := s.open != nil
	c.Bool(&open)
	if c.R != nil {
		// A Decision of its own: the walk runs on a copy of the kind,
		// which still shares the live one.
		s.open, s.baseline = nil, 0
		if open {
			s.open = new(Decision)
		}
	}
	if open {
		snap.Int(c, &s.open.Target)
		c.String(&s.open.Label)
		c.U64(&s.open.AppliedPoll)
		c.F64(&s.baseline)
	}
}
