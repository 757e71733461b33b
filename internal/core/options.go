package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"hpmvm/internal/hw/cache"
	"hpmvm/internal/opt"
)

// ErrBadOptions is the sentinel wrapped by every Options validation
// failure; callers distinguish configuration mistakes from run
// failures with errors.Is(err, core.ErrBadOptions).
var ErrBadOptions = errors.New("invalid options")

// OptimizationConfig selects one managed online optimization by kind,
// with an optional tuning config.
type OptimizationConfig struct {
	// Kind is the name of a kind registered with package opt (one of
	// its Kind* constants).
	Kind string
	// Config tunes the entry: nil selects the kind's defaults, otherwise
	// it is a value of (or pointer to) the config type the kind's
	// opt.Descriptor declares. Canonical forms carry the resolved value.
	Config any
}

// managedOptimizations resolves Options.Optimizations into the list of
// optimizations the system manages, in registration order (sorted by
// kind), each entry's Config resolved to a value of its kind's config
// type. It is the one place entries are checked against the kind
// registry; Validate, Canonical and NewSystemOpts all go through it.
// The list is total: Canonical must hash invalid options too, so an
// offending entry is kept unresolved (a duplicate is dropped) and the
// first offence is returned as an error wrapping ErrBadOptions.
func (o Options) managedOptimizations() ([]OptimizationConfig, error) {
	if len(o.Optimizations) == 0 {
		return nil, nil
	}
	var firstErr error
	bad := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf("core: %w: %s", ErrBadOptions, fmt.Sprintf(format, args...))
		}
	}
	list := make([]OptimizationConfig, 0, len(o.Optimizations))
	for _, e := range o.Optimizations {
		if slices.ContainsFunc(list, func(x OptimizationConfig) bool { return x.Kind == e.Kind }) {
			bad("optimization kind %q configured twice", e.Kind)
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

// Validate reports whether the option combination is buildable. Every
// failure wraps ErrBadOptions. NewSystemOpts runs it, so an invalid
// combination — a co-allocation entry without monitoring, or on the
// copying collector — is an error instead of a silently mis-wired
// System.
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
