package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"hpmvm/internal/hw/cache"
	"hpmvm/internal/monitor"
	"hpmvm/internal/opt"
	"hpmvm/internal/vm/aos"
	"hpmvm/internal/vm/runtime"
)

// ErrBadOptions is the sentinel wrapped by every Options validation
// failure; callers distinguish configuration mistakes from run
// failures with errors.Is(err, core.ErrBadOptions).
var ErrBadOptions = errors.New("invalid options")

// OptimizationConfig selects one managed online optimization by kind,
// with an optional tuning config.
type OptimizationConfig struct {
	// Kind is the name of a kind registered with package opt
	// (opt.KindCoalloc, ...).
	Kind string
	// Config tunes the entry: nil selects the kind's defaults, otherwise
	// it is a value of (or pointer to) the config type the kind's
	// opt.Descriptor declares. Canonical forms carry the resolved value.
	Config any
}

// managedOptimizations resolves Options into the list of optimizations
// the system manages, in registration order (sorted by kind), each
// entry's Config resolved to a value of its kind's config type. It is
// the one place the legacy Coalloc/CoallocConfig switch folds into the
// list — as a leading coalloc-kind entry — and the one place entries
// are checked against the kind registry; Validate, Canonical and
// NewSystemOpts all go through it. The list is total: Canonical must
// hash invalid options too, so an offending entry is kept unresolved
// (a duplicate is dropped) and the first offence is returned as an
// error wrapping ErrBadOptions.
func (o Options) managedOptimizations() ([]OptimizationConfig, error) {
	var firstErr error
	bad := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf("core: %w: %s", ErrBadOptions, fmt.Sprintf(format, args...))
		}
	}
	entries := o.Optimizations
	if o.Coalloc {
		entries = append([]OptimizationConfig{{Kind: opt.KindCoalloc, Config: o.CoallocConfig}}, entries...)
	} else if o.CoallocConfig != nil {
		bad("CoallocConfig set without Coalloc")
	}
	if len(entries) == 0 {
		return nil, firstErr
	}
	list := make([]OptimizationConfig, 0, len(entries))
	for _, e := range entries {
		if slices.ContainsFunc(list, func(x OptimizationConfig) bool { return x.Kind == e.Kind }) {
			bad("optimization kind %q configured twice (the legacy Coalloc switch counts as a coalloc entry)", e.Kind)
			continue
		}
		d, known := opt.Lookup(e.Kind)
		if !known {
			bad("unknown optimization kind %q", e.Kind)
		} else if cfg, err := d.Resolve(e.Config); err != nil {
			bad("%v", err)
		} else {
			e.Config = cfg
			switch {
			case !o.Monitoring:
				bad("the %s optimization requires Monitoring (the pipeline consumes HPM samples)", e.Kind)
			case d.NeedsGenMS && o.Collector != GenMS:
				bad("the %s optimization requires the GenMS collector", e.Kind)
			case d.ExactOnly && o.Sampling != nil:
				bad("the %s optimization is not supported in sampled mode (it changes a cost model mid-run)", e.Kind)
			}
		}
		list = append(list, e)
	}
	sort.SliceStable(list, func(i, j int) bool { return list[i].Kind < list[j].Kind })
	return list, firstErr
}

// Option is a functional setting applied by NewSystemWith. Options
// layer over the Options struct: every Option is a small mutation of
// an Options value, so the two construction styles are interchangeable
// and converge on the same validation path (Options.Validate).
type Option func(*Options)

// WithCache sets the memory-hierarchy geometry (default: the paper's
// P4, cache.DefaultP4).
func WithCache(cfg cache.Config) Option {
	return func(o *Options) { o.Cache = cfg }
}

// WithCollector selects the GC policy.
func WithCollector(k CollectorKind) Option {
	return func(o *Options) { o.Collector = k }
}

// WithHeapLimit sets the total heap budget in bytes.
func WithHeapLimit(bytes uint64) Option {
	return func(o *Options) { o.HeapLimit = bytes }
}

// WithMonitoring enables the PEBS unit, kernel module and collector
// thread at the given hardware sampling interval in events (0 selects
// the adaptive "auto" mode, §6.3).
func WithMonitoring(interval uint64) Option {
	return func(o *Options) {
		o.Monitoring = true
		o.SamplingInterval = interval
	}
}

// WithEvent selects the sampled hardware event (default: L1 misses).
func WithEvent(e cache.EventKind) Option {
	return func(o *Options) { o.Event = e }
}

// WithMonitorConfig overrides the collector-thread tuning.
func WithMonitorConfig(cfg monitor.Config) Option {
	return func(o *Options) { o.MonitorConfig = &cfg }
}

// WithCoalloc enables the HPM-guided co-allocation policy. Requires
// monitoring and the GenMS collector (validated).
func WithCoalloc() Option {
	return func(o *Options) { o.Coalloc = true }
}

// WithAdaptive enables the AOS sampler (plan recording mode).
func WithAdaptive() Option {
	return func(o *Options) { o.Adaptive = true }
}

// WithAOSConfig enables the AOS sampler with explicit tuning.
func WithAOSConfig(cfg aos.Config) Option {
	return func(o *Options) {
		o.Adaptive = true
		o.AOSConfig = &cfg
	}
}

// WithSampling enables sampled simulation with the given region
// schedule (zero fields select the defaults in
// runtime.DefaultSamplingConfig).
func WithSampling(cfg runtime.SamplingConfig) Option {
	return func(o *Options) { o.Sampling = &cfg }
}

// WithSeed sets the deterministic PRNG seed.
func WithSeed(seed int64) Option {
	return func(o *Options) { o.Seed = seed }
}

// WithTrackFields restricts the monitor's time series to the named
// fields ("Class::field").
func WithTrackFields(fields ...string) Option {
	return func(o *Options) { o.TrackFields = fields }
}

// WithObserver attaches the observability layer (package obs) with the
// given trace-ring capacity (0 selects obs.DefaultTraceCapacity). The
// observer is passive: it never charges simulated cycles.
func WithObserver(traceCapacity int) Option {
	return func(o *Options) {
		o.Observe = true
		o.TraceCapacity = traceCapacity
	}
}

// Validate reports whether the option combination is buildable. Every
// failure wraps ErrBadOptions. Both constructors (NewSystemOpts and
// NewSystemWith) run it, so an invalid combination — co-allocation
// without monitoring, or on the copying collector — is an error
// instead of a silently mis-wired System.
func (o Options) Validate() error {
	if o.Collector != GenMS && o.Collector != GenCopy {
		return fmt.Errorf("core: %w: unknown collector kind %d", ErrBadOptions, int(o.Collector))
	}
	if o.Event < 0 || o.Event >= cache.NumEventKinds {
		return fmt.Errorf("core: %w: unknown hardware event kind %d", ErrBadOptions, int(o.Event))
	}
	if o.TraceCapacity < 0 {
		return fmt.Errorf("core: %w: negative TraceCapacity %d", ErrBadOptions, o.TraceCapacity)
	}
	if o.MonitorConfig != nil && !o.Monitoring {
		return fmt.Errorf("core: %w: MonitorConfig set without Monitoring", ErrBadOptions)
	}
	if o.AOSConfig != nil && !o.Adaptive {
		return fmt.Errorf("core: %w: AOSConfig set without Adaptive", ErrBadOptions)
	}
	_, err := o.managedOptimizations()
	return err
}

// withDefaults resolves zero values to their documented defaults. It
// is the single place defaults live; NewSystemOpts and Canonical both
// use it so the built System and the cache key agree on what a zero
// field means.
func (o Options) withDefaults() Options {
	if o.Cache.LineSize == 0 {
		o.Cache = cache.DefaultP4()
	}
	if o.HeapLimit == 0 {
		o.HeapLimit = 64 * 1024 * 1024
	}
	if o.Sampling != nil {
		scfg := o.Sampling.WithDefaults()
		o.Sampling = &scfg
	}
	return o
}
