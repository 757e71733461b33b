package core

import (
	"errors"
	"reflect"
	"testing"

	"hpmvm/internal/hw/cache"
	"hpmvm/internal/opt"
)

// FuzzCanonical fuzzes the cache-key contract over the Options space:
// Canonical must be idempotent (canonicalization is a normal form) and
// Fingerprint must be stable under it — the properties the serve result
// cache and the snapshot restore validation both rest on. Runs over its
// seed corpus as a plain test in CI; `go test -fuzz=FuzzCanonical
// ./internal/core` explores further.
func FuzzCanonical(f *testing.F) {
	f.Add(uint8(0), uint64(0), false, uint64(0), uint8(0), false, false, int64(0), "", false, false, uint32(0), false, uint32(0), false)
	f.Add(uint8(1), uint64(12<<20), true, uint64(1000), uint8(1), false, false, int64(7), "String::value", true, true, uint32(0), true, uint32(0), true)
	f.Add(uint8(0), uint64(8<<20), true, uint64(0), uint8(2), true, true, int64(-3), "Node::next", false, true, uint32(4096), false, uint32(4), true)
	f.Add(uint8(2), uint64(1), true, uint64(25_000), uint8(9), true, false, int64(1<<40), "a::b", true, false, uint32(1), true, uint32(63), false)

	f.Fuzz(func(t *testing.T, collector uint8, heap uint64, monitoring bool,
		interval uint64, event uint8, coalloc, adaptive bool, seed int64,
		track string, observe bool,
		codeLayout bool, icacheSize uint32,
		swPrefetch bool, spDistance uint32, byValue bool) {
		o := Options{
			Collector:        CollectorKind(collector % 2),
			HeapLimit:        heap,
			Monitoring:       monitoring,
			SamplingInterval: interval,
			Event:            cache.EventKind(event % 3),
			Adaptive:         adaptive,
			Seed:             seed,
			Observe:          observe,
		}
		if track != "" {
			o.TrackFields = []string{track}
		}
		if coalloc {
			o.Optimizations = append(o.Optimizations, OptimizationConfig{Kind: opt.KindCoalloc})
		}
		// An entry's config travels as nil (zero tuning input), as a
		// pointer, or — byValue — as a value: three spellings of one
		// configuration.
		if codeLayout {
			e := OptimizationConfig{Kind: opt.KindCodeLayout}
			if cfg := (opt.CodeLayoutConfig{ICacheSize: int(icacheSize)}); icacheSize != 0 && byValue {
				e.Config = cfg
			} else if icacheSize != 0 {
				e.Config = &cfg
			}
			o.Optimizations = append(o.Optimizations, e)
		}
		if swPrefetch {
			e := OptimizationConfig{Kind: opt.KindSwPrefetch}
			if cfg := (opt.SwPrefetchConfig{Distance: int(spDistance)}); spDistance != 0 && byValue {
				e.Config = cfg
			} else if spDistance != 0 {
				e.Config = &cfg
			}
			o.Optimizations = append(o.Optimizations, e)
		}

		// Canonicalization is idempotent: a canonical form is its own
		// normal form.
		c := o.Canonical()
		if cc := c.Canonical(); !reflect.DeepEqual(cc, c) {
			t.Fatalf("Canonical not idempotent:\n once  %+v\n twice %+v", c, cc)
		}

		// Fingerprints are stable across canonicalization and repeated
		// computation, and are well-formed content addresses.
		fp := o.Fingerprint()
		if fp != o.Fingerprint() || fp != c.Fingerprint() {
			t.Fatalf("Fingerprint unstable: %s vs %s vs %s", fp, o.Fingerprint(), c.Fingerprint())
		}
		if len(fp) != 64 {
			t.Fatalf("Fingerprint %q is not a sha256 hex digest", fp)
		}

		// The sampling interval is semantic exactly when monitoring is
		// on.
		div := o
		div.SamplingInterval = interval + 1
		if monitoring {
			if div.Fingerprint() == fp {
				t.Fatalf("interval change did not perturb Fingerprint")
			}
		} else if div.Fingerprint() != fp {
			// Without monitoring the interval is gated off entirely.
			t.Fatalf("gated-off interval perturbed Fingerprint")
		}

		// The passive observer switch never reaches the key.
		passive := o
		passive.Observe = !o.Observe
		if passive.Fingerprint() != fp {
			t.Fatalf("passive Observe perturbed Fingerprint")
		}

		// Entry order and the config's spelling (nil ≡ the kind's
		// explicit defaults, value ≡ pointer) never reach the key.
		respelled := o
		respelled.Optimizations = nil
		for i := len(o.Optimizations) - 1; i >= 0; i-- {
			e := o.Optimizations[i]
			d, _ := opt.Lookup(e.Kind)
			e.Config, _ = d.Resolve(e.Config)
			respelled.Optimizations = append(respelled.Optimizations, e)
		}
		if respelled.Fingerprint() != fp {
			t.Fatalf("reordered, defaults-resolved optimization list hashes differently:\n given     %s\n respelled %s",
				o.CanonicalString(), respelled.CanonicalString())
		}

		// A nil and an empty (non-nil) list are one configuration.
		empty := o
		empty.Optimizations = append([]OptimizationConfig{}, o.Optimizations...)
		if empty.Fingerprint() != fp {
			t.Fatalf("re-sliced optimization list perturbed Fingerprint")
		}

		// Every entry is semantic: adding a kind must move the key;
		// naming one twice is rejected.
		for kind, present := range map[string]bool{
			opt.KindCoalloc: coalloc, opt.KindCodeLayout: codeLayout, opt.KindSwPrefetch: swPrefetch} {
			with := o
			with.Optimizations = append([]OptimizationConfig{{Kind: kind}}, o.Optimizations...)
			if present {
				if err := with.Validate(); !errors.Is(err, ErrBadOptions) {
					t.Fatalf("duplicate %s entry: Validate = %v, want ErrBadOptions", kind, err)
				}
			} else if with.Fingerprint() == fp {
				t.Fatalf("%s entry did not perturb Fingerprint", kind)
			}
		}
	})
}
