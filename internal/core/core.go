// Package core is the public façade of the reproduction: it wires the
// simulated Pentium 4 (CPU, caches, PEBS), the perfmon kernel module,
// the VM (compilers, AOS, runtime), a garbage collector, the HPM
// monitor and the online optimizations it drives (co-allocation among
// them) into one configurable System —
// the "dynamic compiler+runtime environment that incorporates
// machine-level information as an additional kind of feedback" the
// paper describes.
//
// Typical use:
//
//	sys, err := core.NewSystemOpts(universe, core.Options{
//		HeapLimit:        64 << 20,
//		Monitoring:       true,
//		SamplingInterval: 25_000,
//		Optimizations:    []core.OptimizationConfig{{Kind: opt.KindCoalloc}},
//	})
//	sys.Boot(plan, materialize)
//	err = sys.RunContext(ctx, entry, 0)
//	fmt.Println(sys.VM.Results(), sys.Hier().Stats().L1Misses)
package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	_ "hpmvm/internal/coalloc" // registers the co-allocation kind
	"hpmvm/internal/gc/gencopy"
	"hpmvm/internal/gc/genms"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/hw/pebs"
	"hpmvm/internal/kernel/perfmon"
	"hpmvm/internal/monitor"
	"hpmvm/internal/obs"
	"hpmvm/internal/opt"
	"hpmvm/internal/stats"
	"hpmvm/internal/vm/aos"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/runtime"
)

// CollectorKind selects the GC policy.
type CollectorKind int

const (
	// GenMS is the generational mark-sweep collector (the paper's
	// default, and the only one supporting co-allocation).
	GenMS CollectorKind = iota
	// GenCopy is the generational copying comparator (Figure 6).
	GenCopy
)

func (k CollectorKind) String() string {
	if k == GenCopy {
		return "GenCopy"
	}
	return "GenMS"
}

// ParseCollector resolves the collector spelling the CLIs and the /v1
// API accept: genms or gencopy in any case; the empty string selects
// the default (GenMS).
func ParseCollector(s string) (CollectorKind, error) {
	switch strings.ToLower(s) {
	case "", "genms":
		return GenMS, nil
	case "gencopy":
		return GenCopy, nil
	}
	return 0, fmt.Errorf("%w: unknown collector %q (genms or gencopy)", ErrBadOptions, s)
}

// Options configures a System.
type Options struct {
	// Cache is the memory-hierarchy geometry; zero value selects the
	// paper's P4 (cache.DefaultP4).
	Cache cache.Config

	// Collector selects the GC policy; HeapLimit is the total heap
	// budget in bytes.
	Collector CollectorKind
	HeapLimit uint64

	// Monitoring enables the PEBS unit, kernel module and collector
	// thread. SamplingInterval selects the hardware interval in events
	// (e.g. 25_000); 0 selects the adaptive "auto" mode (§6.3). Event
	// defaults to L1 misses.
	Monitoring       bool
	SamplingInterval uint64
	Event            cache.EventKind

	// Optimizations selects managed online optimizations by kind (any
	// kind registered with package opt — opt.KindCoalloc is the paper's
	// HPM-guided co-allocation, which also requires the GenMS
	// collector), each with an optional config of the kind's own type.
	// Every entry requires Monitoring (the pipeline consumes HPM
	// samples).
	Optimizations []OptimizationConfig

	// Adaptive enables the AOS sampler for recompilation (plan
	// recording mode). The measured configurations instead replay a
	// pre-generated plan (§6.1).
	Adaptive bool

	// Sampling, when non-nil, runs the simulation in sampled mode:
	// functional fast-forward alternating with detailed measured
	// regions per the runtime.SamplingConfig schedule (zero fields
	// select defaults). Architectural results are identical to an
	// exact run; cycle counts and cache statistics become estimates,
	// read via System.SamplingEstimate. A non-nil Sampling yields a
	// Fingerprint distinct from every exact configuration, and sampled
	// systems refuse Snapshot.
	Sampling *runtime.SamplingConfig

	// Seed drives the deterministic PRNG (interval randomization).
	// Runs repeated with different seeds model the paper's "average
	// over 3 executions".
	Seed int64

	// TrackFields restricts the monitor's time series to the named
	// fields ("Class::field"), as used by the Figure 7/8 experiments.
	TrackFields []string

	// Observe attaches the observability layer (package obs) to every
	// subsystem: counters are registered and a structured event trace
	// is recorded. The observer never charges simulated cycles, so
	// enabling it does not perturb measured results; disabled (the
	// default), every emission site is a nil check.
	Observe bool
}

// System is a fully wired execution platform.
type System struct {
	Opts Options

	VM      *runtime.VM
	Unit    *pebs.Unit
	Module  *perfmon.Module
	Monitor *monitor.Monitor
	AOS     *aos.AOS

	// OptManager drives the managed optimizations (non-nil iff any are
	// configured).
	OptManager *opt.Manager

	GenMS   *genms.Collector
	GenCopy *gencopy.Collector

	// Obs is the observability layer, non-nil iff Options.Observe.
	Obs *obs.Observer

	rng    *rand.Rand
	rngSrc *countedSource

	// Lifecycle flags backing the Snapshot/Restore contract (see
	// snapshot.go): Restore requires a booted system that has not yet
	// run, and Resume must reattach tickers exactly once.
	booted   bool
	ran      bool
	attached bool
}

// countedSource wraps the deterministic PRNG source and counts draws,
// so a snapshot can record the stream position and a restore can
// replay the source to it. Int63 and Uint64 each advance the
// underlying source by exactly one step, so the count alone pins the
// position regardless of which method consumers called.
type countedSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countedSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countedSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countedSource) Seed(seed int64) { c.src.Seed(seed) }

// userFilter gates hardware events on CPU privilege mode so that only
// application activity is sampled (§5.3: VM-internal events excluded).
type userFilter struct {
	sys *System
}

func (f userFilter) HardwareEvent(kind cache.EventKind, addr uint64) {
	if f.sys.VM.CPU.UserMode() {
		f.sys.Unit.HardwareEvent(kind, addr)
	}
}

// NewSystemOpts builds a System over an already-populated universe
// (all classes, methods and bytecode defined and Layout() called):
// validate, resolve defaults, wire. An invalid option combination is
// an error wrapping ErrBadOptions.
func NewSystemOpts(u *classfile.Universe, opts Options) (*System, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	s := &System{Opts: opts}
	s.rngSrc = &countedSource{src: rand.NewSource(opts.Seed).(rand.Source64)}
	s.rng = rand.New(s.rngSrc)
	s.VM = runtime.New(u, opts.Cache)

	// Sampling hardware and kernel module exist unconditionally (the
	// hardware is always on the chip); they cost nothing unless a
	// session is started. The event listener is only wired up when a
	// session can exist: without it, the memory hierarchy's hot path
	// skips event delivery on every miss (a nil check instead of an
	// interface call plus a privilege-mode test per event).
	s.Unit = pebs.NewUnit(s.VM.CPU, s.rng)
	s.Module = perfmon.NewModule(s.Unit, s.VM.CPU)
	if opts.Monitoring {
		s.VM.Hier.SetListener(userFilter{s})
	}

	switch opts.Collector {
	case GenCopy:
		s.GenCopy = gencopy.New(s.VM, opts.HeapLimit)
	default:
		s.GenMS = genms.New(s.VM, opts.HeapLimit)
	}

	if opts.Monitoring {
		s.Monitor = monitor.New(s.VM, s.Module, monitor.Config{
			Auto:        opts.SamplingInterval == 0,
			TrackFields: opts.TrackFields,
		})

		// The manager observes the monitor before any optimization is
		// built: monitor observers run in registration order, and that
		// order is part of the byte-identity contract the golden corpus
		// pins.
		if managed, _ := opts.managedOptimizations(); len(managed) > 0 {
			s.OptManager = opt.NewManager(s.Monitor)
			env := opt.Env{VM: s.VM, Monitor: s.Monitor}
			for _, e := range managed {
				d, _ := opt.Lookup(e.Kind)
				s.OptManager.Register(d.New(env, e.Config))
			}
		}
	}

	if opts.Adaptive {
		s.AOS = aos.New(s.VM)
	}

	if opts.Sampling != nil {
		sam, err := s.VM.EnableSampling(*opts.Sampling)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if opts.Monitoring {
			sam.SetSampleCounter(func() uint64 { return s.Unit.Stats().SamplesTaken })
		}
	}

	if opts.Observe {
		s.attachObserver()
	}
	return s, nil
}

// attachObserver builds the observability layer and wires it through
// every subsystem that exists under the current options. The observer
// is passive — it never charges simulated cycles — so attaching it
// changes no measured result (pinned by TestObserveCycleIdentical).
func (s *System) attachObserver() {
	o := obs.New(0)
	s.Obs = o

	now := s.VM.CPU.Cycles
	s.VM.Hier.SetObserver(o, now)
	s.Unit.SetObserver(o)
	s.Module.SetObserver(o)
	if s.GenMS != nil {
		s.GenMS.SetObserver(o)
	}
	if s.GenCopy != nil {
		s.GenCopy.SetObserver(o)
	}
	if s.Monitor != nil {
		s.Monitor.SetObserver(o)
	}
	if s.OptManager != nil {
		s.OptManager.SetObserver(o)
	}

	recompiles := o.Counter("vm.recompiles")
	s.VM.OnRecompile(func(methodID int) {
		recompiles.Add(1)
		var level uint64
		if s.VM.OptInfo(methodID) != nil {
			level = 1
		}
		o.Emit(obs.EvRecompile, now(), uint64(methodID), level, 0)
	})
}

// Hier returns the memory hierarchy (for statistics).
func (s *System) Hier() *cache.Hierarchy { return s.VM.Hier }

// Boot materializes the program's constant objects, builds the
// dispatch tables and compiles every method under the given plan.
// materialize may be nil for programs without reference constants.
func (s *System) Boot(plan runtime.CompilePlan, materialize func(vm *runtime.VM)) error {
	if materialize != nil {
		materialize(s.VM)
	}
	s.VM.BuildDispatch()
	if err := s.VM.CompileAll(plan); err != nil {
		return err
	}
	s.VM.MarkBootComplete()
	s.booted = true
	return nil
}

// Run executes the entry method to completion (or the cycle budget)
// with monitoring configured per the options. It is a thin wrapper
// over RunContext with a background context.
func (s *System) Run(entry *classfile.Method, maxCycles uint64) error {
	return s.RunContext(context.Background(), entry, maxCycles)
}

// RunContext executes the entry method to completion (or the cycle
// budget), aborting early if ctx is cancelled. Cancellation is
// cooperative: the VM polls the context at safepoints (the run loop's
// scheduling points, at least every runtime.CancelCheckCycles
// simulated cycles) and returns an error wrapping ctx.Err(). A context
// that is never cancelled leaves the simulation cycle-identical to
// Run. Statistics are reset at the start of the run so boot work is
// excluded, matching the paper's measurement methodology.
func (s *System) RunContext(ctx context.Context, entry *classfile.Method, maxCycles uint64) error {
	_, err := s.runFrom(ctx, entry, maxCycles, 0)
	return err
}

// RunToCycle executes like RunContext but pauses — returning
// (true, nil) — once the simulated cycle counter reaches pauseAt (0
// means no pause point). A paused system sits at a VM scheduling point
// with its monitoring session still live; it is the state Snapshot is
// designed to capture. Resume with ResumeContext. A run paused and
// resumed is cycle- and byte-identical to one that never paused
// (pinned by the snapshot determinism tests). If the program finishes
// before pauseAt, RunToCycle returns (false, err) like RunContext —
// including the end-of-run monitor flush.
func (s *System) RunToCycle(ctx context.Context, entry *classfile.Method, maxCycles, pauseAt uint64) (paused bool, err error) {
	return s.runFrom(ctx, entry, maxCycles, pauseAt)
}

// SessionConfig is the PEBS session of a monitored run: the paper's
// operating point on the given event, sampling every interval events.
// Interval 0 is auto mode, which starts from a fine interval so the
// controller has samples to steer with early in the (short, scaled)
// run; it widens the interval as soon as the rate target is exceeded.
func SessionConfig(interval uint64, event cache.EventKind) pebs.Config {
	if interval == 0 {
		interval = 10_000
	}
	return pebs.Config{Event: event, Interval: interval}
}

// watch makes ctx's cancellation the VM's safepoint check and returns
// the function that removes it again.
func (s *System) watch(ctx context.Context) (unwatch func()) {
	done := ctx.Done()
	if done == nil {
		return func() {}
	}
	s.VM.SetCancel(func() error {
		select {
		case <-done:
			return ctx.Err()
		default:
			return nil
		}
	})
	return func() { s.VM.SetCancel(nil) }
}

// finish ends a run that was not paused: the sampling session stops and
// the monitor drains what is still buffered. It passes the run's error
// through.
func (s *System) finish(err error) error {
	if s.Opts.Monitoring {
		s.Module.Stop()
		s.Monitor.Flush()
	}
	return err
}

func (s *System) runFrom(ctx context.Context, entry *classfile.Method, maxCycles, pauseAt uint64) (bool, error) {
	defer s.watch(ctx)()
	// Cold caches and clean counters at program start.
	s.VM.Hier.Flush()
	s.VM.Hier.ResetStats()
	s.ran = true

	if s.Opts.Monitoring {
		if err := s.Module.ConfigureSession(SessionConfig(s.Opts.SamplingInterval, s.Opts.Event)); err != nil {
			return false, fmt.Errorf("core: %w", err)
		}
		s.Module.Start()
		s.Monitor.Attach()
	}
	if s.AOS != nil {
		s.AOS.Attach()
	}
	s.attached = true

	if err := s.VM.Start(entry); err != nil {
		return false, err
	}
	paused, err := s.VM.RunUntil(maxCycles, pauseAt)
	if paused {
		// Mid-run pause: the session stays live so a snapshot captures
		// it; no stop, no flush.
		return true, nil
	}
	return false, s.finish(err)
}

// ResumeContext continues execution on a system that was paused by
// RunToCycle or rebuilt by RestoreSystem/System.Restore. Unlike
// RunContext it does not flush caches, reset statistics, reconfigure
// the sampling session, or restart the program — all of that state is
// exactly where the pause (or the restored snapshot) left it. On a
// restored system the monitor and AOS tickers are reattached without
// touching their restored deadlines. The run then proceeds to
// completion (or the cycle budget) with the usual end-of-run monitor
// flush.
func (s *System) ResumeContext(ctx context.Context, maxCycles uint64) error {
	defer s.watch(ctx)()
	if !s.attached {
		if s.Monitor != nil {
			s.Monitor.Reattach()
		}
		if s.AOS != nil {
			s.AOS.Reattach()
		}
		s.attached = true
	}
	s.ran = true
	return s.finish(s.VM.Run(maxCycles))
}

// SamplingEstimate extrapolates the full-run metrics of a sampled run
// from its measured regions (Options.Sampling non-nil). ok is false on
// an exact-mode system. Call after the run completes; a mid-run call
// extrapolates from the regions measured so far.
func (s *System) SamplingEstimate() (est stats.Estimate, ok bool) {
	sam := s.VM.Sampler()
	if sam == nil {
		return stats.Estimate{}, false
	}
	return sam.Estimate(), true
}

// GCStats returns (minor, major) collection counts.
func (s *System) GCStats() (uint64, uint64) {
	return s.VM.Collector.Collections()
}

// OptStats returns one decision/revert counter row per managed
// optimization, in registration order (nil when none are configured).
func (s *System) OptStats() []opt.KindStats {
	if s.OptManager == nil {
		return nil
	}
	return s.OptManager.Stats()
}

// Optimization returns the managed optimization of the given kind (nil
// when that kind is not configured). A caller that needs more than the
// opt.Optimization interface asserts the kind's own type.
func (s *System) Optimization(kind string) opt.Optimization {
	if s.OptManager != nil {
		for _, op := range s.OptManager.Optimizations() {
			if op.Kind() == kind {
				return op
			}
		}
	}
	return nil
}
