package opt

import (
	"fmt"
	"maps"
	"sort"

	"hpmvm/internal/obs"
	"hpmvm/internal/snap"
	"hpmvm/internal/vm/runtime"
)

// SwPrefetch is the third PEBS-driven optimization: software prefetch
// injection at strided miss sites. The monitor's per-sample sink feeds
// every sampled miss address into a per-PC stride detector — the same
// confidence-counted scheme as the hardware stream prefetcher, but
// keyed by the faulting PC and tolerant of the randomized sampling
// interval: consecutive samples at one PC are k strides apart for a
// varying k, so the detector accepts exact multiples of its trained
// stride and refines toward the common divisor instead of demanding
// back-to-back lines the way the hardware does. Sites whose stride
// survives MinConfidence observations get a software prefetch injected
// via the VM's recompile hook (vm.InstallPrefetchSites): every
// subsequent execution of that PC issues Hierarchy.SoftwarePrefetch at
// addr + stride×Distance, a mechanism deliberately distinct from the
// hardware stream prefetcher so the two are separately attributable.
//
// Its niche is complementary to the hardware: the stream prefetcher
// trains only on L2 misses with ±1-line deltas, so L2-resident strided
// working sets — which still pay the L2 hit penalty on every L1 miss —
// are invisible to it. The injected prefetch pulls the next stride's
// line into L1 ahead of the demand access and squashes itself for free
// while the line is still L1-resident, so a streaming loop pays the
// issue cycle roughly once per line.
//
// Like the other optimizations the decision is verified online (§5.3):
// cycles-per-access over the EvalPeriods polls before the injection is
// the baseline, the same rate after it is the evidence, and an
// injection that regresses past RegressionFactor× baseline is reverted
// by reinstalling the previous site set. BadInjectAtCycle deliberately
// installs an L1-thrashing site set (each prefetch lands on the demand
// line's own set) to exercise the revert path — Figure 7's
// bad-decision experiment, transplanted to prefetch injection.
type SwPrefetch struct {
	guarded
	cfg SwPrefetchConfig
	vm  *runtime.VM

	// streams is the per-PC stride detector table, bounded at
	// MaxStreams with least-seen eviction.
	streams map[uint64]*swStream

	// installed is the currently injected site set (PC → prefetch
	// delta in bytes) with the owning method of each site; a new
	// injection is proposed only when the confident set changes.
	installed   map[uint64]int64
	siteMethods map[uint64]int
}

// swStream is one detector entry: the last sampled miss address at a
// PC, the trained stride, and its confidence.
type swStream struct {
	lastAddr uint64
	stride   int64
	conf     int
	seen     uint64
	methodID int
}

// minStrideGCD is the smallest common divisor the detector accepts as
// a refined stride. Misses happen at line granularity, so genuine
// strided sample deltas share a large divisor; unrelated addresses of
// a pointer-chasing site share at most their alignment. Half a line
// (64 bytes under the default 128-byte geometry) separates the two.
const minStrideGCD = 64

// SwPrefetchConfig parameterizes the prefetch-injection optimization.
type SwPrefetchConfig struct {
	// MinSamples is the number of attributed samples required before
	// the first injection.
	MinSamples uint64
	// MinConfidence is how many stride-consistent deltas a PC must
	// accumulate before it qualifies as an injection site.
	MinConfidence int
	// MaxSites caps how many sites one injection installs (0 = default).
	MaxSites int
	// Distance is how many strides ahead each prefetch targets.
	Distance int
	// MaxStreams bounds the detector table (least-seen eviction).
	MaxStreams int
	// IssueCycles is the cost charged per issued (non-squashed)
	// software prefetch, passed to cache.Hierarchy.EnableSwPrefetch.
	IssueCycles uint64
	// EvalPeriods is the assessment window in monitor polls: the
	// baseline is measured over this many polls before an injection,
	// the verdict over this many polls after it.
	EvalPeriods uint64
	// RegressionFactor flags an injection as bad when post-injection
	// cycles-per-access exceeds baseline × this factor.
	RegressionFactor float64
	// MinMissRate is the L1D miss-rate floor below which no injection
	// is proposed: prefetching pays issue cycles and pollutes the
	// cache, so the optimization acts only when monitoring shows data
	// misses worth that cost. 0 resolves to the default; a negative
	// value disables the floor.
	MinMissRate float64
	// MaxReverts backs the optimization off: after this many reverted
	// injections it stops proposing. 0 resolves to the default; a
	// negative value never backs off.
	MaxReverts int
	// BadInjectAtCycle, when non-zero, makes the next injection
	// proposed at or after this cycle a deliberate cache-polluting
	// site set (every prefetch evicts the demand line's own L1 set) —
	// the bad-decision hook the revert tests use. Applied once.
	BadInjectAtCycle uint64
	// Passive runs the detector without ever proposing an injection
	// (the experiment baseline).
	Passive bool
}

// DefaultSwPrefetchConfig returns the standard parameters.
func DefaultSwPrefetchConfig() SwPrefetchConfig {
	return SwPrefetchConfig{
		MinSamples:       32,
		MinConfidence:    3,
		MaxSites:         16,
		Distance:         2,
		MaxStreams:       256,
		IssueCycles:      1,
		EvalPeriods:      6,
		RegressionFactor: 1.2,
		MinMissRate:      0.01,
		MaxReverts:       2,
	}
}

// WithDefaults resolves the zero values that have no meaningful zero
// semantics to their defaults. MinSamples 0 (inject immediately),
// BadInjectAtCycle 0 (never) and Passive false are meaningful zeros
// and stay put. Canonicalization and construction both apply it, so a
// zero field and its explicit default build — and fingerprint —
// identically.
func (c SwPrefetchConfig) WithDefaults() SwPrefetchConfig {
	d := DefaultSwPrefetchConfig()
	orDefault(&c.MinConfidence, d.MinConfidence)
	orDefault(&c.MaxSites, d.MaxSites)
	orDefault(&c.Distance, d.Distance)
	orDefault(&c.MaxStreams, d.MaxStreams)
	orDefault(&c.IssueCycles, d.IssueCycles)
	orDefault(&c.EvalPeriods, d.EvalPeriods)
	orDefault(&c.RegressionFactor, d.RegressionFactor)
	orDefault(&c.MinMissRate, d.MinMissRate)
	orDefault(&c.MaxReverts, d.MaxReverts)
	return c
}

// swPlan is a site set to install: the Analyze→Apply payload (bad marks
// the deliberate polluting injection), and — as the open decision's
// State — the set that was live before it, which Revert reinstalls.
type swPlan struct {
	sites   map[uint64]int64
	methods map[uint64]int
	bad     bool
}

func init() {
	Register(Describe(KindSwPrefetch, swPrefetchComponent, Requirements{ExactOnly: true},
		DefaultSwPrefetchConfig, SwPrefetchConfig.WithDefaults, NewSwPrefetch))
}

// NewSwPrefetch switches on the hierarchy's software-prefetch model,
// builds the optimization over it, registers its sample sink with the
// monitor and its site-invalidation hook with the VM, and returns it
// ready for Manager.Register.
func NewSwPrefetch(env Env, cfg SwPrefetchConfig) *SwPrefetch {
	cfg = cfg.WithDefaults()
	env.VM.Hier.EnableSwPrefetch(env.VM.CPU, cfg.IssueCycles)
	s := &SwPrefetch{
		guarded: guarded{mon: env.Monitor, p: guardParams{
			MinSamples:       cfg.MinSamples,
			EvalPeriods:      cfg.EvalPeriods,
			RegressionFactor: cfg.RegressionFactor,
			MinMissRate:      cfg.MinMissRate,
			MaxReverts:       cfg.MaxReverts,
			BadAtCycle:       cfg.BadInjectAtCycle,
			Passive:          cfg.Passive,
		}},
		cfg:     cfg,
		vm:      env.VM,
		streams: make(map[uint64]*swStream),
	}
	env.Monitor.AddSink(func(pc, dataAddr uint64, methodID int, interval uint64) {
		s.seen++
		if dataAddr != 0 {
			s.observe(pc, dataAddr, methodID)
		}
	})
	// A recompiled method's old PCs stay executable (frames on the
	// stack) but new invocations run the fresh body, so sites keyed on
	// the old body's PCs decay into dead issue cost. Drop the method's
	// sites and detector streams and reinstall the remainder.
	env.VM.OnRecompile(func(methodID int) { s.dropMethod(methodID) })
	return s
}

// observe feeds one sampled miss into the stride detector.
func (s *SwPrefetch) observe(pc, addr uint64, methodID int) {
	st, ok := s.streams[pc]
	if !ok {
		if len(s.streams) >= s.cfg.MaxStreams {
			s.evictStream()
		}
		s.streams[pc] = &swStream{lastAddr: addr, seen: 1, methodID: methodID}
		return
	}
	delta := int64(addr - st.lastAddr)
	st.lastAddr = addr
	st.methodID = methodID
	st.seen++
	if delta == 0 {
		return
	}
	switch {
	case st.stride == 0:
		st.stride = delta
		st.conf = 1
	case sameSign(delta, st.stride) && delta%st.stride == 0:
		// k strides were skipped between samples (randomized interval).
		st.conf++
	case sameSign(delta, st.stride) && st.stride%delta == 0:
		// The trained stride was itself a multiple of the true stride;
		// refine down to the finer one.
		st.stride = delta
		st.conf++
	default:
		if g := int64(gcd64(abs64(delta), abs64(st.stride))); sameSign(delta, st.stride) && g >= minStrideGCD {
			// Neither delta divides the other but both are multiples of
			// a large common stride (k1×S vs k2×S): retrain at S.
			if st.stride < 0 {
				g = -g
			}
			st.stride = g
			st.conf = 1
		} else {
			// Direction flip or irregular delta: retrain from scratch.
			st.stride = delta
			st.conf = 0
		}
	}
}

// evictStream removes the least-seen detector entry (ties broken by
// lowest PC, so eviction is deterministic across map iteration orders).
func (s *SwPrefetch) evictStream() {
	var victim uint64
	first := true
	for pc, st := range s.streams {
		if first || st.seen < s.streams[victim].seen ||
			(st.seen == s.streams[victim].seen && pc < victim) {
			victim = pc
			first = false
		}
	}
	if !first {
		delete(s.streams, victim)
	}
}

// dropMethod discards detector and site state tied to a recompiled
// method and reinstalls the surviving sites.
func (s *SwPrefetch) dropMethod(methodID int) {
	for pc, st := range s.streams {
		if st.methodID == methodID {
			delete(s.streams, pc)
		}
	}
	changed := false
	for pc, id := range s.siteMethods {
		if id == methodID {
			delete(s.installed, pc)
			delete(s.siteMethods, pc)
			changed = true
		}
	}
	if changed {
		s.vm.InstallPrefetchSites(s.installed)
	}
}

// Kind implements Optimization.
func (s *SwPrefetch) Kind() string { return KindSwPrefetch }

// Analyze implements Optimization. Every poll it records the data-cache
// counters (cycles-per-access is the verdict rate, the L1D miss rate
// the floor); when the guards pass and the confident site set changed,
// it proposes one injection.
func (s *SwPrefetch) Analyze(now uint64) []Proposal {
	cst := s.vm.Hier.Stats()
	s.record(cst.Accesses, cst.Cycles, cst.L1Misses)
	inject, ok := s.gate(now)
	if !ok {
		return nil
	}
	if inject {
		plan := s.pollutingPlan()
		if plan == nil {
			return nil
		}
		return s.propose(fmt.Sprintf("polluting injection at %d sites", len(plan.sites)),
			obs.DecisionIntervene, plan)
	}
	plan := s.confidentPlan()
	if plan == nil || maps.Equal(plan.sites, s.installed) {
		return nil
	}
	return s.propose(fmt.Sprintf("prefetch injection at %d strided sites", len(plan.sites)),
		obs.DecisionActivate, plan)
}

// confidentPlan builds the site set from detector streams at or above
// MinConfidence. Each site's delta is stride × Distance; sites whose
// delta can never survive the page-boundary clamp are skipped.
func (s *SwPrefetch) confidentPlan() *swPlan {
	pageSize := uint64(s.vm.Hier.Config().PageSize)
	return s.plan(false, func(st *swStream) (int64, bool) {
		d := st.stride * int64(s.cfg.Distance)
		return d, st.conf >= s.cfg.MinConfidence && st.stride != 0 && abs64(d) < pageSize
	})
}

// pollutingPlan targets the hottest sampled PCs with a delta of
// -L1Size: under a direct-mapped L1 the prefetched line aliases the
// demand line's own set, so every access evicts the line it just
// fetched — pure issue cost plus guaranteed pollution.
func (s *SwPrefetch) pollutingPlan() *swPlan {
	delta := -int64(s.vm.Hier.Config().L1Size)
	return s.plan(true, func(*swStream) (int64, bool) { return delta, true })
}

// plan builds a site set over the detector streams delta accepts,
// hottest first (ties broken by PC), capped at MaxSites; nil when no
// stream qualifies.
func (s *SwPrefetch) plan(bad bool, delta func(*swStream) (int64, bool)) *swPlan {
	pcs := make([]uint64, 0, len(s.streams))
	for pc, st := range s.streams {
		if _, ok := delta(st); ok {
			pcs = append(pcs, pc)
		}
	}
	if len(pcs) == 0 {
		return nil
	}
	sort.Slice(pcs, func(i, j int) bool {
		si, sj := s.streams[pcs[i]], s.streams[pcs[j]]
		if si.seen != sj.seen {
			return si.seen > sj.seen
		}
		return pcs[i] < pcs[j]
	})
	if len(pcs) > s.cfg.MaxSites {
		pcs = pcs[:s.cfg.MaxSites]
	}
	plan := &swPlan{sites: make(map[uint64]int64, len(pcs)), methods: make(map[uint64]int, len(pcs)), bad: bad}
	for _, pc := range pcs {
		st := s.streams[pc]
		plan.sites[pc], _ = delta(st)
		plan.methods[pc] = st.methodID
	}
	return plan
}

// Apply implements Optimization: install the plan's site set through
// the VM's recompile hook and open the decision for assessment.
func (s *SwPrefetch) Apply(now uint64, p Proposal) {
	plan := p.State.(*swPlan)
	prev := &swPlan{sites: s.installed, methods: s.siteMethods}
	s.install(plan.sites, plan.methods)
	baseline := s.opened(p, plan.bad)
	s.open.State = prev
	s.logf(now, "injection #%d: %s (baseline %.4f cycles/access)", p.Target, p.Label, baseline)
}

// install points the VM (and through it the hierarchy) at a new site
// set. Maps are copied so later bookkeeping never mutates a plan or a
// decision's revert payload.
func (s *SwPrefetch) install(sites map[uint64]int64, methods map[uint64]int) {
	s.installed, s.siteMethods = maps.Clone(sites), maps.Clone(methods)
	s.vm.InstallPrefetchSites(s.installed)
}

// Assess implements Optimization: compare cycles-per-access over the
// assessment window against the pre-injection baseline.
func (s *SwPrefetch) Assess(now uint64, d *Decision) Assessment {
	a := s.verdict()
	if a.Verdict == VerdictKeep {
		s.logf(now, "injection #%d kept (%.4f cycles/access, baseline %.4f)", d.Target, a.A, a.B)
	}
	return a
}

// Revert implements Optimization: reinstall the site set that was live
// before the bad injection.
func (s *SwPrefetch) Revert(now uint64, d *Decision, a Assessment) {
	prev := d.State.(*swPlan)
	s.install(prev.sites, prev.methods)
	s.reverted()
	s.logf(now, "injection #%d reverted (%.4f vs baseline %.4f cycles/access): restored %d sites",
		d.Target, a.A, a.B, len(prev.sites))
}

func sameSign(a, b int64) bool {
	return (a > 0) == (b > 0) && a != 0 && b != 0
}

func abs64(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Snapshot/Restore implement snap.Checkpointable. Everything the
// decision loop consults is serialized: the guard state, the detector
// table, the site bookkeeping and the open decision's revert payload.
// The hierarchy's live site table is cache state and travels in the
// hw/cache component, which restores before this one — so Restore only
// rebuilds the optimization's own view.

const (
	swPrefetchComponent = "opt/swprefetch"
	swPrefetchVersion   = 2
)

// walkSites walks a site set — PC → prefetch delta, with each site's
// owning method kept in a parallel map — as (pc, delta, method) triples
// in PC order.
func walkSites(c *snap.Codec, sites *map[uint64]int64, methods *map[uint64]int) {
	owner := *methods
	if c.R != nil {
		*methods = make(map[uint64]int)
	}
	snap.Map(c, sites, func(c *snap.Codec, pc *uint64, delta *int64) {
		c.U64(pc)
		c.I64(delta)
		m := owner[*pc]
		snap.Int(c, &m)
		if c.R != nil {
			(*methods)[*pc] = m
		}
	})
}

// walk is the optimization's layout.
func (s *SwPrefetch) walk(c *snap.Codec) {
	s.guardState.walk(c)
	snap.MapPtr(c, &s.streams, func(c *snap.Codec, pc *uint64, st *swStream) {
		c.U64(pc)
		c.U64(&st.lastAddr)
		c.I64(&st.stride)
		snap.Int(c, &st.conf)
		c.U64(&st.seen)
		snap.Int(c, &st.methodID)
	})
	walkSites(c, &s.installed, &s.siteMethods)
	// The open decision's revert payload: the site set it replaced.
	if s.open != nil {
		if c.R != nil {
			s.open.State = new(swPlan)
		}
		prev := s.open.State.(*swPlan)
		walkSites(c, &prev.sites, &prev.methods)
	}
}

// Snapshot serializes the optimization state.
func (s *SwPrefetch) Snapshot() snap.ComponentState {
	return snap.Encode(swPrefetchComponent, swPrefetchVersion, s.walk)
}

// Restore overwrites the optimization state.
func (s *SwPrefetch) Restore(st snap.ComponentState) error {
	next := *s
	if err := snap.Decode(st, swPrefetchComponent, swPrefetchVersion, next.walk); err != nil {
		return err
	}
	*s = next
	return nil
}
