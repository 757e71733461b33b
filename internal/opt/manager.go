package opt

import (
	"hpmvm/internal/monitor"
	"hpmvm/internal/obs"
)

// Manager owns the online-optimization loop. It registers a single
// observer with the monitor and, on every poll, drives each registered
// optimization through the paper's pipeline: analyze the freshly
// decoded samples, apply the proposed decisions, and — once a
// decision's monitoring window has elapsed — assess it and revert it
// if the verdict is bad.
//
// The manager itself is stateless across snapshots: its poll clock is
// the monitor's serialized poll counter, and every per-decision datum
// it consults (AppliedPoll, assessment inputs, decision/revert
// counters) lives in the optimizations' own snapshot state. A restored
// system therefore rebuilds an identical manager from configuration
// alone.
type Manager struct {
	mon  *monitor.Monitor
	obs  *obs.Observer
	opts []Optimization
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
// kind index carried in EvOptDecision/EvOptRevert events.
func (m *Manager) Register(o Optimization) {
	m.opts = append(m.opts, o)
}

// Optimizations returns the managed set in registration order.
func (m *Manager) Optimizations() []Optimization {
	return m.opts
}

// SetObserver wires the trace/counter sink: it registers sampled
// per-kind decision/revert counters (opt.<kind>.decisions,
// opt.<kind>.reverts) and enables EvOptDecision/EvOptRevert emission.
func (m *Manager) SetObserver(o *obs.Observer) {
	m.obs = o
	if o == nil {
		return
	}
	for _, op := range m.opts {
		op := op
		o.RegisterSampled("opt."+op.Kind()+".decisions", func() uint64 { return op.Stats().Decisions })
		o.RegisterSampled("opt."+op.Kind()+".reverts", func() uint64 { return op.Stats().Reverts })
	}
}

// Stats returns one row per registered optimization, in registration
// order.
func (m *Manager) Stats() []KindStats {
	out := make([]KindStats, 0, len(m.opts))
	for _, op := range m.opts {
		s := op.Stats()
		out = append(out, KindStats{Kind: op.Kind(), Decisions: s.Decisions, Reverts: s.Reverts})
	}
	return out
}

// observe is the per-poll pipeline. The monitor invokes it after
// decoding the poll's samples, so Analyze sees fully attributed data.
func (m *Manager) observe(now uint64) {
	polls := m.mon.Stats().Polls
	for idx, op := range m.opts {
		for _, p := range op.Analyze(now) {
			op.Apply(now, p)
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
			if a.Verdict != VerdictBad {
				continue
			}
			op.Revert(now, d, a)
			if m.obs != nil {
				m.obs.Emit(obs.EvOptRevert, now, uint64(idx), uint64(d.Target), a.Reason)
			}
		}
	}
}
