// Package opt is the generic online-optimization framework: the
// monitor→analyze→apply→assess→revert pipeline of the paper,
// factored out of the co-allocation policy so the same PEBS-driven
// feedback loop can drive several optimization kinds (the ROADMAP's
// "PGO beyond co-allocation" item).
//
// The paper's pipeline is: hardware samples → method/bytecode/field
// attribution → analysis → an optimization decision → online
// verification with revert (§5.3, Figures 7/8). Package coalloc
// hardwired that loop to one optimization; this package splits it into
// an Optimization interface (candidate analysis, decision application,
// per-decision assessment, revert) and a Manager that owns the loop:
// it observes the monitor's poll ticks, drives each registered
// optimization through analyze→apply, gates assessment on the
// optimization's monitoring window, reverts decisions the assessment
// flags as regressions, and keeps the one record of every decision.
//
// Three kinds ship: the ported co-allocation policy (coalloc.Policy
// implements Optimization; the golden corpus pins its behaviour), the
// hot/cold code-layout optimization (codelayout.go), which relocates
// hot compiled methods onto adjacent instruction-cache lines, and
// software prefetch injection at strided miss sites (swprefetch.go).
//
// A kind presents itself to the rest of the system through one
// Descriptor (kind.go) registered next to its implementation;
// internal/core derives validation, canonicalization, wiring and the
// snapshot component list from the registry and names no kind itself.
// Kinds that keep a single decision open and verify it against a
// before/after rate embed the guarded-decision helper (guard.go) and
// supply only what is their own: what to decide and how to enact and
// undo it.
package opt

// Kind names for the shipped optimizations.
const (
	// KindCoalloc is the object co-allocation policy (package coalloc).
	KindCoalloc = "coalloc"
	// KindCodeLayout is the hot/cold code-layout optimization
	// (codelayout.go in this package).
	KindCodeLayout = "codelayout"
	// KindSwPrefetch is the software prefetch-injection optimization
	// (swprefetch.go in this package).
	KindSwPrefetch = "swprefetch"
)

// Proposal is one candidate decision produced by Analyze. The manager
// passes proposals back to the same optimization's Apply unchanged;
// State carries the optimization's private payload between the two
// halves (Analyze must not enact — splitting computation from
// mutation is what lets the manager own the loop).
type Proposal struct {
	// Target identifies what the proposal acts on (a field ID for
	// co-allocation, a layout epoch for code layout).
	Target int
	// Label is a human-readable description for the decision record.
	Label string
	// Code is the obs decision code the application will be traced
	// with (obs.DecisionActivate, obs.DecisionIntervene, ...).
	Code uint64
	// State is the optimization-private payload consumed by Apply.
	State any
}

// Decision is one applied, still-monitored decision. Optimizations own
// their decisions (they are part of the optimization's snapshot state
// where persistent); OpenDecisions returns views for the manager to
// assess.
type Decision struct {
	// Target and Label mirror the proposal's.
	Target int
	Label  string
	// AppliedPoll is the monitor poll count when Apply ran; the
	// manager gates assessment on polls-since-apply reaching the
	// optimization's MonitorWindow.
	AppliedPoll uint64
	// State is the optimization-private payload consumed by Assess and
	// Revert.
	State any
}

// Verdict is an assessment outcome.
type Verdict int

const (
	// VerdictOpen leaves the decision open: it is not judged yet.
	VerdictOpen Verdict = iota
	// VerdictKeep closes the decision as judged and kept.
	VerdictKeep
	// VerdictBad flags the decision as a regression; the manager
	// invokes Revert with the assessment.
	VerdictBad
)

// Assessment is the result of judging one decision against the
// monitoring data accumulated since it was applied.
type Assessment struct {
	Verdict Verdict
	// Reason is the obs decision code of the revert
	// (obs.DecisionRevertAB or obs.DecisionRevertRate).
	Reason uint64
	// A and B are the two sides of the comparison that produced the
	// verdict (measured vs reference: misses/pair, rates, ...), which
	// the manager's record of the verdict cites as evidence.
	A, B float64
}

// KindStats counts one optimization kind's apply and revert records —
// the aggregation row bench results and /v1/statsz carry.
type KindStats struct {
	Kind      string `json:"kind"`
	Decisions uint64 `json:"decisions"`
	Reverts   uint64 `json:"reverts"`
}

// Optimization is one online optimization driven by the manager. The
// calls arrive in a fixed order within each monitor poll: Analyze,
// then Apply per proposal, then (window permitting) Assess per open
// decision, then Revert per bad verdict. Implementations may update
// internal bookkeeping in Analyze (sample accounting, state-entry
// creation) but must not enact placement/layout changes outside Apply
// and Revert.
type Optimization interface {
	// Kind returns the stable kind name ("coalloc", "codelayout").
	Kind() string
	// Analyze inspects the monitoring data at cycle now and returns
	// the decisions the optimization wants applied this poll, in
	// application order.
	Analyze(now uint64) []Proposal
	// Apply enacts one proposal and returns the baseline the decision
	// will be judged against.
	Apply(now uint64, p Proposal) (baseline float64)
	// MonitorWindow returns the assessment window in monitor polls: a
	// decision is first assessed once that many polls have elapsed
	// since it was applied. 0 assesses every decision on every poll
	// (the co-allocation policy's behaviour — its A/B comparison gates
	// itself on sample counts instead).
	MonitorWindow() uint64
	// OpenDecisions returns the currently monitored decisions in a
	// deterministic order (the manager assesses them in this order).
	OpenDecisions() []*Decision
	// Assess judges one open decision.
	Assess(now uint64, d *Decision) Assessment
	// Revert undoes one decision flagged VerdictBad.
	Revert(now uint64, d *Decision, a Assessment)
}
