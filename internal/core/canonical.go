package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strings"
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
//     sub-config. Sampled configs also never share a snapshot prefix
//     (sampled systems refuse Snapshot).

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
	var b strings.Builder
	v := reflect.ValueOf(c)
	t := v.Type()
	b.WriteString("core.Options{")
	for i := 0; i < t.NumField(); i++ {
		name := t.Field(i).Name
		if _, skip := canonicalIgnored[name]; skip {
			continue
		}
		appendCanonical(&b, name, v.Field(i))
	}
	b.WriteString("}")
	return b.String()
}

// Fingerprint returns the SHA-256 hex digest of CanonicalString — the
// content address of the run's configuration.
func (o Options) Fingerprint() string {
	sum := sha256.Sum256([]byte(o.CanonicalString()))
	return hex.EncodeToString(sum[:])
}

// prefixCanonical is the canonical form with the hardware sampling
// interval zeroed. Two monitoring configurations with equal prefix
// forms run the same simulation except for when samples are taken —
// the relationship the snapshot prefix cache exploits.
func (o Options) prefixCanonical() Options {
	c := o.Canonical()
	c.SamplingInterval = 0
	return c
}

// PrefixCanonicalString serializes the prefix-canonical form (see
// prefixCanonical).
func (o Options) PrefixCanonicalString() string {
	return canonicalString(o.prefixCanonical())
}

// PrefixFingerprint returns the SHA-256 hex digest of
// PrefixCanonicalString. A snapshot whose PrefixFingerprint matches a
// system's — while the exact Fingerprints differ — may be restored
// divergently: the shared warm prefix is reused and the system's own
// sampling interval is applied from the restore point on (see
// System.Restore).
func (o Options) PrefixFingerprint() string {
	sum := sha256.Sum256([]byte(o.PrefixCanonicalString()))
	return hex.EncodeToString(sum[:])
}

// appendCanonical serializes one value deterministically.
func appendCanonical(b *strings.Builder, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprintf(b, "%s=nil;", name)
			return
		}
		appendCanonical(b, name, v.Elem())
	case reflect.Struct:
		fmt.Fprintf(b, "%s{", name)
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			appendCanonical(b, t.Field(i).Name, v.Field(i))
		}
		b.WriteString("};")
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(b, "%s[", name)
		for i := 0; i < v.Len(); i++ {
			appendCanonical(b, fmt.Sprintf("%d", i), v.Index(i))
		}
		b.WriteString("];")
	case reflect.Map:
		// Maps iterate in random order; serialize entries sorted by
		// their rendered key so the result is stable.
		keys := v.MapKeys()
		rendered := make([]string, len(keys))
		for i, k := range keys {
			var kb strings.Builder
			appendCanonical(&kb, "k", k)
			var vb strings.Builder
			appendCanonical(&vb, "v", v.MapIndex(k))
			rendered[i] = kb.String() + vb.String()
		}
		sort.Strings(rendered)
		fmt.Fprintf(b, "%s<%s>;", name, strings.Join(rendered, ""))
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%s=%v;", name, v.Interface())
	default:
		panic(fmt.Sprintf("core: field %s has kind %s, which has no canonical serialization — extend appendCanonical or add the field to canonicalIgnored", name, v.Kind()))
	}
}
