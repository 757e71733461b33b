package opt

import (
	"fmt"
	"slices"

	"hpmvm/internal/monitor"
	"hpmvm/internal/obs"
	"hpmvm/internal/snap"
)

// Manager owns the online-optimization loop. It registers a single
// observer with the monitor and, on every poll, drives each registered
// optimization through the paper's pipeline: analyze the freshly
// decoded samples, apply the proposed decisions, and — once a
// decision's monitoring window has elapsed — assess it and revert it
// if the verdict is bad.
//
// The manager is the only module that records decisions, and the
// records are its whole snapshot: every per-decision datum it consults
// lives in the optimizations' own snapshot state.
type Manager struct {
	mon     *monitor.Monitor
	obs     *obs.Observer
	opts    []Optimization
	records []Record
}

// Record is one entry of the decision history: an applied proposal
// (Verdict VerdictOpen: the decision opens) or the verdict that closed
// a decision (VerdictKeep, or VerdictBad for a revert). Code is the obs
// decision code, the proposal's or the assessment's reason; A and B are
// the assessment's two sides, and an apply carries only its baseline,
// in B.
type Record struct {
	Cycle   uint64
	Kind    string
	Verdict Verdict
	Target  int
	Label   string
	Code    uint64
	A, B    float64
}

// decisionNames names the obs decision codes, indexed by code.
var decisionNames = [...]string{
	obs.DecisionActivate:   "activate",
	obs.DecisionRevertAB:   "revert_ab",
	obs.DecisionRevertRate: "revert_rate",
	obs.DecisionIntervene:  "intervene",
}

// String is the one rendering of a decision line. An apply and a
// revert are named by their decision code, so an activation and an
// intervention stay distinguishable.
func (r Record) String() string {
	what, tail := decisionNames[r.Code], fmt.Sprintf("%.4g vs %.4g", r.A, r.B)
	if r.Verdict == VerdictKeep {
		what = "keep"
	} else if r.Verdict == VerdictOpen {
		tail = fmt.Sprintf("baseline %.4g", r.B)
	}
	return fmt.Sprintf("[cycle %d] %s %s #%d %s (%s)", r.Cycle, r.Kind, what, r.Target, r.Label, tail)
}

// NewManager creates a manager observing mon's poll ticks. Monitor
// observers run in registration order and that order is part of the
// byte-identity contract the golden corpus pins, so the caller creates
// the manager right after the monitor, before anything else observes it.
func NewManager(mon *monitor.Monitor) *Manager {
	m := &Manager{mon: mon}
	mon.AddObserver(m.observe)
	return m
}

// Register adds an optimization to the managed set. Optimizations run
// in registration order on every poll; the registration index is the
// kind index carried in EvOptDecision/EvOptRevert events and in the
// records' snapshot.
func (m *Manager) Register(o Optimization) {
	m.opts = append(m.opts, o)
}

// Optimizations returns the managed set in registration order.
func (m *Manager) Optimizations() []Optimization {
	return m.opts
}

// Records returns the decision history, oldest first.
func (m *Manager) Records() []Record {
	return m.records
}

// SetObserver wires the trace/counter sink: it registers sampled
// per-kind decision/revert counters (opt.<kind>.decisions,
// opt.<kind>.reverts) and enables EvOptDecision/EvOptRevert emission.
func (m *Manager) SetObserver(o *obs.Observer) {
	m.obs = o
	if o == nil {
		return
	}
	for i, op := range m.opts {
		o.RegisterSampled("opt."+op.Kind()+".decisions", func() uint64 { return m.Stats()[i].Decisions })
		o.RegisterSampled("opt."+op.Kind()+".reverts", func() uint64 { return m.Stats()[i].Reverts })
	}
}

// Stats returns one row per registered optimization, in registration
// order: its apply and revert records counted.
func (m *Manager) Stats() []KindStats {
	out := make([]KindStats, len(m.opts))
	for i, op := range m.opts {
		out[i].Kind = op.Kind()
		for _, r := range m.records {
			if r.Kind == out[i].Kind && r.Verdict == VerdictOpen {
				out[i].Decisions++
			} else if r.Kind == out[i].Kind && r.Verdict == VerdictBad {
				out[i].Reverts++
			}
		}
	}
	return out
}

// observe is the per-poll pipeline. The monitor invokes it after
// decoding the poll's samples, so Analyze sees fully attributed data.
func (m *Manager) observe(now uint64) {
	polls := m.mon.Stats().Polls
	for idx, op := range m.opts {
		for _, p := range op.Analyze(now) {
			baseline := op.Apply(now, p)
			m.records = append(m.records, Record{Cycle: now, Kind: op.Kind(),
				Target: p.Target, Label: p.Label, Code: p.Code, B: baseline})
			if m.obs != nil {
				m.obs.Emit(obs.EvOptDecision, now, uint64(idx), uint64(p.Target), p.Code)
			}
		}
		w := op.MonitorWindow()
		for _, d := range op.OpenDecisions() {
			if w > 0 && polls-d.AppliedPoll < w {
				continue
			}
			a := op.Assess(now, d)
			if a.Verdict == VerdictOpen {
				continue
			}
			if a.Verdict == VerdictBad {
				op.Revert(now, d, a)
				if m.obs != nil {
					m.obs.Emit(obs.EvOptRevert, now, uint64(idx), uint64(d.Target), a.Reason)
				}
			}
			m.records = append(m.records, Record{Cycle: now, Kind: op.Kind(), Verdict: a.Verdict,
				Target: d.Target, Label: d.Label, Code: a.Reason, A: a.A, B: a.B})
		}
	}
}

// Snapshot/Restore implement snap.Checkpointable: the records, each
// naming its kind by registration index.

const (
	managerComponent = "opt"
	managerVersion   = 1
)

// walk is the manager's layout. Decoding refuses a kind index outside
// the registered set and an unknown verdict or decision code.
func (m *Manager) walk(c *snap.Codec) {
	snap.Slice(c, &m.records, func(c *snap.Codec, r *Record) {
		kind := slices.IndexFunc(m.opts, func(o Optimization) bool { return o.Kind() == r.Kind })
		c.U64(&r.Cycle)
		snap.Int(c, &kind)
		snap.Int(c, &r.Verdict)
		snap.Int(c, &r.Target)
		c.String(&r.Label)
		c.U64(&r.Code)
		c.F64(&r.A)
		c.F64(&r.B)
		c.Check(r.Verdict >= VerdictOpen && r.Verdict <= VerdictBad && r.Code < uint64(len(decisionNames)),
			"record verdict %d or decision code %d is unknown", r.Verdict, r.Code)
		if c.Check(kind >= 0 && kind < len(m.opts), "record names kind %d of %d", kind, len(m.opts)) {
			r.Kind = m.opts[kind].Kind()
		}
	})
}

// Snapshot serializes the decision history.
func (m *Manager) Snapshot() snap.ComponentState {
	return snap.Encode(managerComponent, managerVersion, m.walk)
}

// Restore overwrites the decision history.
func (m *Manager) Restore(st snap.ComponentState) error {
	next := *m
	if err := snap.Decode(st, managerComponent, managerVersion, next.walk); err != nil {
		return err
	}
	*m = next
	return nil
}
