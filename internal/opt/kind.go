package opt

import (
	"fmt"

	"hpmvm/internal/monitor"
	"hpmvm/internal/vm/runtime"
)

// Env is what a kind's constructor is handed: the VM (and through it
// the CPU, the memory hierarchy and the collector) and the monitor
// whose samples drive the kind. A constructor also switches on whatever
// opt-in hardware model its kind needs.
type Env struct {
	VM      *runtime.VM
	Monitor *monitor.Monitor
}

// Requirements are the configuration constraints a kind declares;
// core.Options.Validate enforces them. Every kind requires monitoring —
// the pipeline consumes HPM samples — so that one is not listed.
type Requirements struct {
	// NeedsGenMS restricts the kind to the GenMS collector.
	NeedsGenMS bool
	// ExactOnly excludes the kind from sampled simulation (it changes
	// a cost model mid-run, which the region estimator cannot follow).
	ExactOnly bool
}

// Descriptor is everything the rest of the system needs to know about
// one optimization kind. internal/core derives validation,
// canonicalization (hence fingerprints), wiring and the snapshot
// component list from the registered descriptors, so adding a kind is
// one Register call next to its implementation.
type Descriptor struct {
	// Kind is the stable kind name.
	Kind string
	// Component is the snapshot component name of the kind's
	// Optimization when that implements snap.Checkpointable.
	Component string
	Requirements

	// Resolve returns the kind's fully resolved config for one entry's
	// config value, or an error when the value is not of the kind's type.
	Resolve func(cfg any) (any, error)
	// New builds the kind's optimization from a resolved config.
	New func(env Env, cfg any) Optimization
}

// Describe builds the descriptor of a kind whose config type is C. A
// configuration entry may carry nil or a nil *C (the kind's defaults),
// a C, or a *C; resolve then maps zero fields to their defaults, and
// the resolved C is what canonicalization hashes and build receives.
func Describe[C any, O Optimization](kind, component string, req Requirements,
	defaults func() C, resolve func(C) C, build func(Env, C) O) Descriptor {
	return Descriptor{
		Kind:         kind,
		Component:    component,
		Requirements: req,
		Resolve: func(cfg any) (any, error) {
			c := defaults()
			switch v := cfg.(type) {
			case nil:
			case C:
				c = v
			case *C:
				if v != nil {
					c = *v
				}
			default:
				return nil, fmt.Errorf("%s optimization config is a %T, want %T", kind, cfg, c)
			}
			return resolve(c), nil
		},
		New: func(env Env, cfg any) Optimization { return build(env, cfg.(C)) },
	}
}

var kinds = map[string]Descriptor{}

// Register adds a kind. It is called from the init function of the
// file that implements the kind and panics on a duplicate name.
func Register(d Descriptor) {
	if _, dup := kinds[d.Kind]; dup {
		panic(fmt.Sprintf("opt: kind %q registered twice", d.Kind))
	}
	kinds[d.Kind] = d
}

// Lookup returns the descriptor registered for kind.
func Lookup(kind string) (Descriptor, bool) {
	d, ok := kinds[kind]
	return d, ok
}
