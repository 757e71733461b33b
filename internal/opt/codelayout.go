package opt

import (
	"fmt"
	"sort"

	"hpmvm/internal/hw/cpu"
	"hpmvm/internal/obs"
	"hpmvm/internal/snap"
	"hpmvm/internal/vm/runtime"
)

// CodeLayout is the second PEBS-driven optimization: hot/cold code
// layout. The monitor's per-sample sink attributes every sampled miss
// to the compiled method whose code the faulting PC lies in; methods
// that absorb samples are where the program spends its time, and
// compilation order scatters them across the code space. Once enough
// samples accumulate, the optimization relocates the hottest methods
// back-to-back at the end of the code space, packing them onto as few
// instruction-cache lines as possible (compiled code is immortal and
// never moves, §4.2, so relocation means recompiling at the same level
// at a fresh address — old bodies stay mapped for frames already on
// the stack, and the dispatch tables retarget new invocations).
//
// Like co-allocation, the decision is verified online (§5.3): the
// L1I miss rate over the EvalPeriods polls before the layout is the
// baseline, the rate over the EvalPeriods polls after it is the
// evidence, and a layout whose rate regresses past
// codeLayoutRegressionFactor× baseline is reverted by re-packing the
// hot set. The BadPadAtCycle hook deliberately applies a conflict
// layout — every hot method padded onto the same cache way — to
// exercise the revert path (Figure 7's bad-decision experiment,
// transplanted to code layout).
type CodeLayout struct {
	guarded
	cfg CodeLayoutConfig
	vm  *runtime.VM

	// samples holds interval-weighted sample counts per method ID (the
	// hotness ranking).
	samples map[int]uint64

	// lastLayout is the hot set most recently laid out, in layout
	// order; a new layout is proposed only when the hot *set* changes.
	lastLayout []int
}

// CodeLayoutConfig parameterizes the code-layout optimization,
// including the instruction-cache geometry it opts the hardware into
// (the default model is a small 8 KB 2-way L1I so layout effects are
// visible at simulated working-set sizes).
type CodeLayoutConfig struct {
	// ICacheSize and ICacheAssoc are the L1I geometry passed to
	// cache.Hierarchy.EnableICache (bytes, ways; both powers of two).
	ICacheSize  int
	ICacheAssoc int
	// HotMethods caps how many methods one layout relocates (0 = no cap).
	HotMethods int
	// MinSamples is the number of attributed samples required before
	// the first layout (and before any re-layout of a changed hot set).
	MinSamples uint64
	// EvalPeriods is the assessment window in monitor polls: the
	// baseline is measured over this many polls before a layout, the
	// verdict over this many polls after it.
	EvalPeriods uint64
	// MinMissRate is the L1I miss-rate floor below which no layout is
	// proposed: relocation pays cold misses on the fresh region, so the
	// optimization acts only when monitoring shows instruction-cache
	// pressure worth that cost. 0 resolves to the default; a negative
	// value disables the floor.
	MinMissRate float64
	// BadPadAtCycle, when non-zero, makes the next layout proposed at
	// or after this cycle a deliberate conflict layout (all hot methods
	// padded onto one cache way) — the bad-decision injection hook the
	// revert tests and the Figure-7-style experiment use. Applied once.
	BadPadAtCycle uint64
	// Passive observes the instruction cache without ever proposing a
	// layout (the experiment baseline).
	Passive bool
}

// DefaultCodeLayoutConfig returns the standard parameters.
func DefaultCodeLayoutConfig() CodeLayoutConfig {
	return CodeLayoutConfig{
		ICacheSize:  8 * 1024,
		ICacheAssoc: 2,
		HotMethods:  16,
		MinSamples:  24,
		EvalPeriods: 6,
		MinMissRate: 0.005,
	}
}

// The code-layout guard's fixed knobs: a layout is bad when the
// post-layout L1I miss rate exceeds baseline × codeLayoutRegressionFactor,
// and after codeLayoutMaxReverts reverted layouts the optimization stops
// proposing — repeated reverts are the monitor saying layout does not
// pay on this workload.
const (
	codeLayoutRegressionFactor = 1.5
	codeLayoutMaxReverts       = 2
)

// WithDefaults resolves the zero values that have no meaningful zero
// semantics (geometry, window, floor) to their defaults. HotMethods 0
// (no cap), MinSamples 0 (layout immediately), BadPadAtCycle 0 (never)
// and Passive false are meaningful zeros and stay put. Canonicalization
// and construction both apply it, so a zero field and its explicit
// default build — and fingerprint — identically.
func (c CodeLayoutConfig) WithDefaults() CodeLayoutConfig {
	d := DefaultCodeLayoutConfig()
	orDefault(&c.ICacheSize, d.ICacheSize)
	orDefault(&c.ICacheAssoc, d.ICacheAssoc)
	orDefault(&c.EvalPeriods, d.EvalPeriods)
	orDefault(&c.MinMissRate, d.MinMissRate)
	return c
}

// orDefault resolves a zero config field to its default.
func orDefault[T comparable](v *T, d T) {
	var zero T
	if *v == zero {
		*v = d
	}
}

// layoutPlan is the Analyze→Apply payload: which methods to relocate
// and whether to lay them out as a deliberate cache-way conflict.
type layoutPlan struct {
	methods  []int
	conflict bool
}

func init() {
	Register(Describe(KindCodeLayout, codeLayoutComponent, Requirements{ExactOnly: true},
		DefaultCodeLayoutConfig, CodeLayoutConfig.WithDefaults, NewCodeLayout))
}

// NewCodeLayout switches on the instruction-cache model the config
// asks for, builds the optimization over it, registers its sample sink
// with the monitor, and returns it ready for Manager.Register.
func NewCodeLayout(env Env, cfg CodeLayoutConfig) *CodeLayout {
	cfg = cfg.WithDefaults()
	hier := env.VM.Hier
	hier.EnableICache(cfg.ICacheSize, cfg.ICacheAssoc)
	env.VM.CPU.SetIFetch(hier.IFetch, hier.Config().LineSize)
	c := &CodeLayout{
		guarded: guarded{mon: env.Monitor, p: guardParams{
			MinSamples:       cfg.MinSamples,
			EvalPeriods:      cfg.EvalPeriods,
			RegressionFactor: codeLayoutRegressionFactor,
			MinMissRate:      cfg.MinMissRate,
			MaxReverts:       codeLayoutMaxReverts,
			BadAtCycle:       cfg.BadPadAtCycle,
			Passive:          cfg.Passive,
		}},
		cfg:     cfg,
		vm:      env.VM,
		samples: make(map[int]uint64),
	}
	env.Monitor.AddSink(func(pc, dataAddr uint64, methodID int, interval uint64) {
		c.samples[methodID] += interval
		c.seen++
	})
	return c
}

// Kind implements Optimization.
func (c *CodeLayout) Kind() string { return KindCodeLayout }

// Analyze implements Optimization. Every poll it records the
// instruction-cache counters (the L1I miss rate is both the verdict
// and the floor rate); when the guards pass and the hot set changed, it
// proposes one layout.
func (c *CodeLayout) Analyze(now uint64) []Proposal {
	ist := c.vm.Hier.IStats()
	c.record(ist.Fetches, ist.Misses, ist.Misses)
	inject, ok := c.gate(now)
	if !ok {
		return nil
	}
	hot := c.hotOrder()
	if len(hot) == 0 {
		return nil
	}
	if inject {
		return c.propose(fmt.Sprintf("conflict layout of %d hot methods", len(hot)),
			obs.DecisionIntervene, &layoutPlan{methods: hot, conflict: true})
	}
	if sameSet(hot, c.lastLayout) {
		return nil
	}
	return c.propose(fmt.Sprintf("packed layout of %d hot methods", len(hot)),
		obs.DecisionActivate, &layoutPlan{methods: hot})
}

// Apply implements Optimization: relocate the plan's methods at the
// end of the code space — tightly packed, or padded onto one cache way
// for a conflict plan — and open the decision for assessment against
// the L1I miss rate before it.
func (c *CodeLayout) Apply(now uint64, p Proposal) float64 {
	plan := p.State.(*layoutPlan)
	if plan.conflict {
		c.applyConflict(plan.methods)
	} else {
		c.pack(plan.methods)
	}
	c.lastLayout = append([]int(nil), plan.methods...)
	return c.opened(p, plan.conflict)
}

// pack relocates the methods back-to-back.
func (c *CodeLayout) pack(methods []int) {
	if err := c.vm.RelocateMethods(methods, make([]int, len(methods))); err != nil {
		panic(fmt.Sprintf("opt: codelayout relocation failed: %v", err))
	}
}

// applyConflict relocates the methods one at a time, padding each onto
// the same cache way as the first: with waySize = size/assoc, every
// start address is congruent mod waySize, so once the set exceeds the
// associativity the bodies evict each other on every transition.
func (c *CodeLayout) applyConflict(methods []int) {
	way := uint64(c.cfg.ICacheSize / c.cfg.ICacheAssoc)
	var first uint64
	for i, id := range methods {
		pad := 0
		next := c.vm.CPU.NextCodeAddr()
		if i == 0 {
			first = next
		} else {
			pad = int(((first - next) & (way - 1)) / cpu.InstrBytes)
		}
		if err := c.vm.RelocateMethods([]int{id}, []int{pad}); err != nil {
			panic(fmt.Sprintf("opt: codelayout conflict relocation failed: %v", err))
		}
	}
}

// Revert implements Optimization: undo a bad layout by re-packing the
// current hot set tightly (code cannot move back, so "undo" means a
// fresh known-good layout).
func (c *CodeLayout) Revert(now uint64, d *Decision, a Assessment) {
	hot := c.hotOrder()
	if len(hot) == 0 {
		hot = append([]int(nil), c.lastLayout...)
	}
	c.pack(hot)
	c.lastLayout = hot
	c.reverted()
}

// hotOrder returns the sampled methods hottest-first (ties broken by
// method ID), capped at HotMethods and at the hottest prefix whose
// compiled bodies fit the instruction cache: packing more code than
// one cache's worth turns the packed region itself into a capacity
// thrash, so the tail stays where it is.
func (c *CodeLayout) hotOrder() []int {
	ids := make([]int, 0, len(c.samples))
	for id, w := range c.samples {
		if w > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		wi, wj := c.samples[ids[i]], c.samples[ids[j]]
		if wi != wj {
			return wi > wj
		}
		return ids[i] < ids[j]
	})
	if c.cfg.HotMethods > 0 && len(ids) > c.cfg.HotMethods {
		ids = ids[:c.cfg.HotMethods]
	}
	sizes := make(map[int]uint64, len(ids))
	for _, b := range c.vm.Table.CurrentBodies() {
		sizes[b.Method.ID] = b.CodeBytes()
	}
	var used uint64
	fit := ids[:0]
	for _, id := range ids {
		if len(fit) > 0 && used+sizes[id] > uint64(c.cfg.ICacheSize) {
			break
		}
		fit = append(fit, id)
		used += sizes[id]
	}
	return fit
}

// sameSet reports whether two method-ID lists contain the same IDs
// (order-insensitively) — layout order shuffles within a stable hot
// set do not justify another relocation.
func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[int]bool, len(a))
	for _, id := range a {
		in[id] = true
	}
	for _, id := range b {
		if !in[id] {
			return false
		}
	}
	return true
}

// Snapshot/Restore implement snap.Checkpointable. Everything the
// decision loop consults is serialized: the guard state, the hotness
// accounting and the layout bookkeeping — a restored system assesses
// and relocates exactly like the origin (the code space itself is
// rebuilt by the VM's recompile-log replay, including pads).

const (
	codeLayoutComponent = "opt/codelayout"
	codeLayoutVersion   = 3
)

// walk is the optimization's layout.
func (c *CodeLayout) walk(k *snap.Codec) {
	c.guardState.walk(k)
	snap.Map(k, &c.samples, snap.Pair(snap.Int[int], (*snap.Codec).U64))
	snap.Slice(k, &c.lastLayout, snap.Int[int])
}

// Snapshot serializes the optimization state.
func (c *CodeLayout) Snapshot() snap.ComponentState {
	return snap.Encode(codeLayoutComponent, codeLayoutVersion, c.walk)
}

// Restore overwrites the optimization state.
func (c *CodeLayout) Restore(st snap.ComponentState) error {
	next := *c
	if err := snap.Decode(st, codeLayoutComponent, codeLayoutVersion, next.walk); err != nil {
		return err
	}
	*c = next
	return nil
}
