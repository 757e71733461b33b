// Package bench provides the benchmark harness: a registry of workload
// programs (synthetic analogues of the paper's SPECjvm98, DaCapo and
// pseudojbb benchmarks, Table 1), a runner that executes a program
// under a configuration (collector, heap size, sampling interval,
// co-allocation) and collects the metrics every figure of §6 is built
// from, and helpers for heap-size sweeps and repeated runs.
package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"hpmvm/internal/coalloc"
	"hpmvm/internal/core"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/monitor"
	"hpmvm/internal/obs"
	"hpmvm/internal/opt"
	"hpmvm/internal/stats"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/mcmap"
	"hpmvm/internal/vm/runtime"
)

// Meta is what a workload declares about itself when it registers:
// everything a caller needs to list it, size its heap or key a run
// without building it.
type Meta struct {
	Description string

	// MinHeap is the calibrated minimum heap (bytes) the program
	// completes in under GenMS; heap-size sweeps are expressed as
	// multiples of it (1x–4x, §6.3).
	MinHeap uint64

	// HotFieldName names the field the paper's time-series figures
	// track for this program (db: "String::value"), or "".
	HotFieldName string
}

// Program is one runnable workload. The registry stamps Name and Meta
// onto every Program its builders return.
type Program struct {
	Name string
	Meta

	U     *classfile.Universe
	Entry *classfile.Method

	// Materialize creates the program's immortal constant objects and
	// resolves bytecode reference constants. May be nil.
	Materialize func(vm *runtime.VM)

	// Expected, when non-nil, is the exact result log the program must
	// produce (programs are deterministic); the runner verifies it.
	Expected []int64
}

// Builder constructs a fresh Program. Builders MUST return a fully
// fresh universe on every call — compiled code and addresses are
// per-VM, and the parallel experiment engine invokes builders
// concurrently from pool workers, so a builder that cached or mutated
// shared state would race across runs.
type Builder func() *Program

// workload is one registry entry: the declared metadata and the
// builder that stamps it onto each Program.
type workload struct {
	meta  Meta
	build Builder
}

// The registry is written only from package init functions (workload
// files call Register from init) and frozen at first read: Get, MetaOf,
// Names and NamesSorted are called concurrently by engine workers, so
// any post-init Register is a bug and panics. The mutex covers the
// freeze transition; after freezing, reads are lock-free.
var (
	registryMu sync.Mutex
	registry   = map[string]workload{}
	order      []string
	frozen     bool
)

// Register adds a workload under a unique name with its declared
// metadata. It must be called from package init (before the first
// Get/Names); registering after the registry froze panics. The builder
// need not set Name or Meta: every Program built through the registry
// carries the registered ones.
func Register(name string, meta Meta, b Builder) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if frozen {
		panic(fmt.Sprintf("bench: Register(%q) after registry frozen (Register must run in init)", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("bench: duplicate workload %q", name))
	}
	registry[name] = workload{meta: meta, build: func() *Program {
		prog := b()
		prog.Name, prog.Meta = name, meta
		return prog
	}}
	order = append(order, name)
}

// freeze marks the registry immutable; the first read-side call wins.
func freeze() {
	registryMu.Lock()
	frozen = true
	registryMu.Unlock()
}

// Get returns the builder for name and freezes the registry.
func Get(name string) (Builder, bool) {
	freeze()
	w, ok := registry[name]
	return w.build, ok
}

// MetaOf returns the metadata name was registered with, without
// building it, and freezes the registry.
func MetaOf(name string) (Meta, bool) {
	freeze()
	w, ok := registry[name]
	return w.meta, ok
}

// ErrUnknownWorkload is the sentinel wrapped by Lookup when the name
// is not registered; callers distinguish configuration mistakes from
// run failures with errors.Is.
var ErrUnknownWorkload = errors.New("unknown workload")

// Lookup returns the builder for name, or an error wrapping
// ErrUnknownWorkload naming the registered workloads.
func Lookup(name string) (Builder, error) {
	if b, ok := Get(name); ok {
		return b, nil
	}
	return nil, fmt.Errorf("bench: %w %q (have %v)", ErrUnknownWorkload, name, NamesSorted())
}

// Names returns all registered workload names in registration order
// and freezes the registry.
func Names() []string {
	freeze()
	return append([]string(nil), order...)
}

// NamesSorted returns all registered workload names sorted.
func NamesSorted() []string {
	ns := Names()
	sort.Strings(ns)
	return ns
}

// AllOptPlan builds the pseudo-adaptive compilation plan that
// opt-compiles every method with bytecode at the given level (§6.1:
// each program runs with a pre-generated compilation plan so the same
// methods are optimized in every configuration).
func AllOptPlan(u *classfile.Universe, level int) runtime.CompilePlan {
	plan := make(runtime.CompilePlan)
	for _, m := range u.Methods() {
		if m.Code != nil {
			plan[m.ID] = level
		}
	}
	return plan
}

// RunConfig selects an execution configuration.
type RunConfig struct {
	// Heap is the heap budget in bytes; 0 means 4x the program's
	// MinHeap (the paper's large-heap setting).
	Heap uint64
	// HeapFactor, when non-zero and Heap is 0, sets Heap to
	// HeapFactor × MinHeap.
	HeapFactor float64

	Collector core.CollectorKind

	// Monitoring enables event sampling; Interval is the hardware
	// sampling interval in events (0 = auto). Event defaults to L1
	// misses.
	Monitoring bool
	Interval   uint64
	Event      cache.EventKind

	// Coalloc enables HPM-guided co-allocation (implies Monitoring);
	// CoallocConfig optionally selects its placement variant: a gap
	// from the start (ablation), the Figure 8 intervention, or the
	// ranked candidate list (§5.4).
	Coalloc       bool
	CoallocConfig *coalloc.Config

	// CodeLayout enables the hot/cold code-layout optimization (implies
	// Monitoring); CodeLayoutConfig optionally overrides its tuning,
	// including the instruction-cache geometry the run opts into.
	CodeLayout       bool
	CodeLayoutConfig *opt.CodeLayoutConfig

	// SwPrefetch enables the software prefetch-injection optimization
	// (implies Monitoring); SwPrefetchConfig optionally overrides its
	// tuning.
	SwPrefetch       bool
	SwPrefetchConfig *opt.SwPrefetchConfig

	// CacheConfig, when non-nil, overrides the memory-hierarchy
	// geometry (default: the paper's P4). The revert experiments use a
	// pressured geometry so a polluting injection is visibly bad.
	CacheConfig *cache.Config

	// Plan overrides the default all-opt compilation plan.
	Plan runtime.CompilePlan
	// OptLevel is the level used by the default plan (default 2).
	OptLevel int
	// Adaptive enables AOS recording mode (baseline compile + timer
	// sampling + recompilation).
	Adaptive bool

	Seed        int64
	MaxCycles   uint64
	TrackFields []string

	// Sampling, when non-nil, runs the simulation in sampled mode
	// (functional fast-forward + detailed measured regions); the
	// extrapolated full-run metrics land in Result.Estimated. Cycles
	// and cache stats in the Result are then the sampled run's own
	// distorted counters, not estimates — read Estimated instead.
	Sampling *runtime.SamplingConfig

	// Observe attaches the observability layer (package obs) to the
	// run's System; Result.Obs then carries the final counter/phase
	// snapshot. The observer is passive, so simulated results are
	// unchanged.
	Observe bool
}

// Result carries every metric the experiments report.
type Result struct {
	Program   string
	Config    RunConfig
	HeapBytes uint64

	Cycles  uint64
	Instret uint64

	Cache cache.Stats

	MinorGCs      uint64
	MajorGCs      uint64
	CoallocPairs  uint64
	GCCycles      uint64
	Fragmentation float64

	MonitorStats monitor.Stats
	SamplesTaken uint64
	Space        mcmap.SpaceStats

	// Opt carries one decision/revert counter row per managed
	// optimization (nil when none are configured).
	Opt []opt.KindStats
	// ICache is the instruction-cache counter set (all zero unless the
	// codelayout optimization enabled the I-cache model).
	ICache cache.IStats

	Results []int64

	// Obs is the observability snapshot, non-nil iff Config.Observe.
	Obs *obs.Metrics

	// Estimated is the sampled-simulation extrapolation, non-nil iff
	// Config.Sampling.
	Estimated *stats.Estimate
}

// HeapBytes is the run's heap budget for a program with the given
// calibrated minimum heap: Heap, or else HeapFactor (0 means 4) times
// minHeap. A factor that is negative, not finite, rounds to 0 bytes or
// overflows uint64 is an error wrapping core.ErrBadOptions. Resolve
// cannot return it, so buildSystem checks it before every build, and
// the serve layer before it keys a request.
func (cfg RunConfig) HeapBytes(minHeap uint64) (uint64, error) {
	if cfg.Heap != 0 {
		return cfg.Heap, nil
	}
	f := cfg.HeapFactor
	if f == 0 {
		f = 4
	}
	b := f * float64(minHeap)
	if !(b >= 1 && b < 1<<64) { // written negated so NaN fails too
		return 0, fmt.Errorf("%w: heap factor %g of a %d-byte minimum heap is not a heap size", core.ErrBadOptions, f, minHeap)
	}
	return uint64(b), nil
}

// Resolve maps the configuration to the fully resolved core.Options
// for a program with the given calibrated minimum heap and hot field.
// It is the single translation point Run uses, exported so the serve
// layer can compute a run's canonical cache key (core.Fingerprint of
// the resolved options) without executing it — the key and the
// execution are guaranteed to agree because they share this function.
// It assumes a heap configuration HeapBytes accepts.
func (cfg RunConfig) Resolve(minHeap uint64, hotField string) core.Options {
	heapBytes, _ := cfg.HeapBytes(minHeap)
	monitoring := cfg.Monitoring || cfg.Coalloc || cfg.CodeLayout || cfg.SwPrefetch
	track := cfg.TrackFields
	if len(track) == 0 && hotField != "" {
		track = []string{hotField}
	}

	opts := core.Options{
		Collector:        cfg.Collector,
		HeapLimit:        heapBytes,
		Monitoring:       monitoring,
		SamplingInterval: cfg.Interval,
		Event:            cfg.Event,
		Adaptive:         cfg.Adaptive,
		Seed:             cfg.Seed,
		TrackFields:      track,
		Observe:          cfg.Observe,
		Sampling:         cfg.Sampling,
	}
	if cfg.Coalloc {
		opts.Optimizations = append(opts.Optimizations,
			core.OptimizationConfig{Kind: opt.KindCoalloc, Config: cfg.CoallocConfig})
	}
	if cfg.CodeLayout {
		opts.Optimizations = append(opts.Optimizations,
			core.OptimizationConfig{Kind: opt.KindCodeLayout, Config: cfg.CodeLayoutConfig})
	}
	if cfg.SwPrefetch {
		opts.Optimizations = append(opts.Optimizations,
			core.OptimizationConfig{Kind: opt.KindSwPrefetch, Config: cfg.SwPrefetchConfig})
	}
	if cfg.CacheConfig != nil {
		opts.Cache = *cfg.CacheConfig
	}
	return opts
}

// Run executes one program under one configuration and returns the
// metrics plus the live System for deeper inspection (time series,
// policy decisions).
func Run(b Builder, cfg RunConfig) (*Result, *core.System, error) {
	return RunContext(context.Background(), b, cfg)
}

// RunContext is Run with cooperative cancellation: the simulation
// aborts at its next safepoint once ctx is cancelled and the error
// wraps ctx.Err(). A context that is never cancelled yields results
// identical to Run.
func RunContext(ctx context.Context, b Builder, cfg RunConfig) (*Result, *core.System, error) {
	prog := b()
	sys, opts, err := buildSystem(prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	cfg.Monitoring = opts.Monitoring
	if err := sys.RunContext(ctx, prog.Entry, cfg.MaxCycles); err != nil {
		return nil, nil, fmt.Errorf("bench: %s: %w", prog.Name, err)
	}
	if prog.Expected != nil {
		if err := checkResults(prog.Expected, sys.VM.Results()); err != nil {
			return nil, nil, fmt.Errorf("bench: %s: %w", prog.Name, err)
		}
	}
	return collectResult(prog, cfg, opts.HeapLimit, sys), sys, nil
}

// BuildSystem constructs and boots a fresh System for the workload
// without running it, returning the built Program alongside. Callers
// that need manual control of execution — the keystone sampled-vs-exact
// tests walk an exact machine to a sampled run's region boundaries with
// VM.RunToInstret — or only the booted image (Table 2, hpmvm -disasm)
// use this instead of Run.
func BuildSystem(b Builder, cfg RunConfig) (*Program, *core.System, error) {
	prog := b()
	sys, _, err := buildSystem(prog, cfg)
	return prog, sys, err
}

// buildSystem constructs and boots a fresh System for prog under cfg —
// the shared front half of RunContext, RunPrefix and RunFromSnapshot,
// so cold, prefix and warm-started runs are guaranteed to boot
// identically (a precondition of the replay-based restore contract, see
// core.System.Restore).
func buildSystem(prog *Program, cfg RunConfig) (*core.System, core.Options, error) {
	if _, err := cfg.HeapBytes(prog.MinHeap); err != nil {
		return nil, core.Options{}, fmt.Errorf("bench: %s: %w", prog.Name, err)
	}
	opts := cfg.Resolve(prog.MinHeap, prog.HotFieldName)
	sys, err := core.NewSystemOpts(prog.U, opts)
	if err != nil {
		return nil, opts, fmt.Errorf("bench: %s: %w", prog.Name, err)
	}
	plan := cfg.Plan
	if plan == nil && !cfg.Adaptive {
		level := cfg.OptLevel
		if level == 0 {
			level = 2
		}
		plan = AllOptPlan(prog.U, level)
	}
	if err := sys.Boot(plan, prog.Materialize); err != nil {
		return nil, opts, fmt.Errorf("bench: %s: boot: %w", prog.Name, err)
	}
	return sys, opts, nil
}

// collectResult assembles the Result metrics from a finished system.
// RunContext and RunFromSnapshot share it, so cold and
// warm-started runs report identically shaped results.
func collectResult(prog *Program, cfg RunConfig, heapBytes uint64, sys *core.System) *Result {
	res := &Result{
		Program:   prog.Name,
		Config:    cfg,
		HeapBytes: heapBytes,
		Cycles:    sys.VM.Cycles(),
		Instret:   sys.VM.CPU.Instret(),
		Cache:     sys.Hier().Stats(),
		Space:     sys.VM.Table.Space(),
		Results:   sys.VM.Results(),
	}
	res.MinorGCs, res.MajorGCs = sys.GCStats()
	if sys.GenMS != nil {
		st := sys.GenMS.Stats()
		res.CoallocPairs = st.CoallocPairs
		res.GCCycles = st.GCCycles
		res.Fragmentation = st.Fragmentation
	}
	if sys.GenCopy != nil {
		res.GCCycles = sys.GenCopy.Stats().GCCycles
	}
	if sys.Monitor != nil {
		res.MonitorStats = sys.Monitor.Stats()
	}
	res.SamplesTaken = sys.Unit.Stats().SamplesTaken
	res.Opt = sys.OptStats()
	res.ICache = sys.Hier().IStats()
	if est, ok := sys.SamplingEstimate(); ok {
		res.Estimated = &est
	}
	if sys.Obs != nil {
		m := sys.Obs.Metrics()
		res.Obs = &m
	}
	return res
}

func checkResults(want, got []int64) error {
	if len(want) != len(got) {
		return fmt.Errorf("result log length %d, want %d (got %v)", len(got), len(want), clip(got))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("result[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

func clip(xs []int64) []int64 {
	if len(xs) > 8 {
		return xs[:8]
	}
	return xs
}
