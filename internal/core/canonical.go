package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync"
)

// This file defines the deterministic cache-key contract: a run is
// fully determined by (workload, resolved Options) — the simulator has
// no other inputs — so two Options values that resolve to the same
// behaviour must serialize identically, and any field that can change
// a simulated number must perturb the serialization. The serve layer
// builds its content-addressed result cache on top of Fingerprint.
//
// Contract (pinned by TestCanonicalFingerprint* via reflection, so a
// new Options field cannot silently bypass the key):
//
//   - Defaults are resolved before hashing: a zero Cache hashes like an
//     explicit DefaultP4, HeapLimit 0 like the 64 MiB default, and a
//     nil optimization config like its kind's defaults.
//   - Fields gated off by their master switch are cleared: with
//     Monitoring false the sampling interval, event and tracked fields
//     cannot reach the simulation, so they do not reach the hash either.
//   - Passive fields are excluded: Observe attaches the obs layer,
//     which never charges simulated cycles (pinned by
//     TestObserveCycleIdentical), so it cannot change a result.
//     Consumers whose *response* shape depends on it (the serve layer
//     returns obs metrics when asked) must fold it into their own key
//     on top of Fingerprint.
//   - Sampling is semantic, not passive: nil (exact) and non-nil
//     (sampled) are different simulations — sampled cycle counts are
//     estimates — so sampled runs hash to their own cache keys, with
//     the config's zero fields resolved to defaults like every other
//     sub-config.

// canonicalIgnored lists the top-level Options fields excluded from
// the canonical serialization, with the invariant that justifies each
// exclusion. Every other field is hashed; the reflection test walks
// Options and fails if a field neither perturbs the hash nor appears
// here.
var canonicalIgnored = map[string]string{
	"Observe": "passive observer, cycle-identical by TestObserveCycleIdentical",
}

// Canonical returns the normalized form of o: defaults resolved,
// switch-gated fields cleared, passive fields zeroed, and every
// optimization config resolved through its kind. Two Options build
// behaviourally identical Systems iff their Canonical forms are deeply
// equal.
func (o Options) Canonical() Options {
	c := o.withDefaults()
	c.Observe = false
	if !c.Monitoring {
		c.SamplingInterval = 0
		c.Event = 0
		c.TrackFields = nil
	}
	// The managed list hashes with every config resolved through its
	// kind's descriptor and sorted by kind — unknown kinds stay in and
	// still perturb the hash.
	c.Optimizations, _ = c.managedOptimizations()
	return c
}

// CanonicalString returns a stable, human-readable serialization of
// the canonical form. It is reflection-driven over the Options struct
// (minus canonicalIgnored), so adding a field to Options automatically
// includes it in the key; field types the serializer cannot order
// deterministically (funcs, channels) panic, forcing a conscious
// decision instead of a silently unstable key. An interface value (an
// optimization entry's Config) serializes as the value it holds.
func (o Options) CanonicalString() string {
	return canonicalString(o.Canonical())
}

// canonicalString serializes an already-canonicalized Options value.
func canonicalString(c Options) string {
	v := reflect.ValueOf(c)
	b := make([]byte, 0, 512)
	b = append(b, "core.Options{"...)
	for i, name := range fieldNames(v.Type()) {
		if _, skip := canonicalIgnored[name]; skip {
			continue
		}
		b = appendCanonical(b, name, v.Field(i))
	}
	return string(append(b, '}'))
}

// Fingerprint returns the SHA-256 hex digest of CanonicalString — the
// content address of the run's configuration.
func (o Options) Fingerprint() string {
	sum := sha256.Sum256([]byte(o.CanonicalString()))
	return hex.EncodeToString(sum[:])
}

// appendCanonical appends one value's deterministic serialization to b.
func appendCanonical(b []byte, name string, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return append(append(b, name...), "=nil;"...)
		}
		return appendCanonical(b, name, v.Elem())
	case reflect.Struct:
		b = append(append(b, name...), '{')
		for i, field := range fieldNames(v.Type()) {
			b = appendCanonical(b, field, v.Field(i))
		}
		return append(b, "};"...)
	case reflect.Slice, reflect.Array:
		b = append(append(b, name...), '[')
		for i := 0; i < v.Len(); i++ {
			b = appendCanonical(b, strconv.Itoa(i), v.Index(i))
		}
		return append(b, "];"...)
	case reflect.Map:
		// Maps iterate in random order; serialize entries sorted by
		// their rendered key so the result is stable.
		keys := v.MapKeys()
		rendered := make([]string, len(keys))
		for i, k := range keys {
			rendered[i] = string(appendCanonical(appendCanonical(nil, "k", k), "v", v.MapIndex(k)))
		}
		sort.Strings(rendered)
		b = append(append(b, name...), '<')
		for _, r := range rendered {
			b = append(b, r...)
		}
		return append(b, ">;"...)
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		b = append(append(b, name...), '=')
		return append(appendScalar(b, v), ';')
	default:
		panic(fmt.Sprintf("core: field %s has kind %s, which has no canonical serialization — extend appendCanonical or add the field to canonicalIgnored", name, v.Kind()))
	}
}

// structFields caches each struct type's field names for fieldNames.
var structFields sync.Map // reflect.Type → []string

// fieldNames returns t's field names in declaration order. It caches
// them because reflect.Type.Field copies a whole StructField per call,
// which would otherwise dominate the walk.
func fieldNames(t reflect.Type) []string {
	if names, ok := structFields.Load(t); ok {
		return names.([]string)
	}
	names := make([]string, t.NumField())
	for i := range names {
		names[i] = t.Field(i).Name
	}
	structFields.Store(t, names)
	return names
}

// appendScalar appends the text %v gives a scalar. A type with methods
// may format itself (fmt.Stringer, error, fmt.Formatter), so it goes
// through fmt; for any other scalar strconv yields the same text
// without boxing the value.
func appendScalar(b []byte, v reflect.Value) []byte {
	if v.NumMethod() > 0 {
		return fmt.Appendf(b, "%v", v.Interface())
	}
	switch v.Kind() {
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool())
	case reflect.String:
		return append(b, v.String()...)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.AppendUint(b, v.Uint(), 10)
	case reflect.Float32:
		return strconv.AppendFloat(b, v.Float(), 'g', -1, 32)
	default:
		return strconv.AppendFloat(b, v.Float(), 'g', -1, 64)
	}
}
