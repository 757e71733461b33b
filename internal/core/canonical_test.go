package core

import (
	"reflect"
	"testing"

	"hpmvm/internal/coalloc"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/monitor"
	"hpmvm/internal/opt"
	"hpmvm/internal/vm/aos"
	"hpmvm/internal/vm/runtime"
)

// fullBase returns an Options value with every master switch on, so
// every field is live (nothing is cleared by the canonical gating) and
// a mutation of any behaviour-relevant field must perturb the hash.
func fullBase() Options {
	return Options{
		Cache:            cache.DefaultP4(),
		Collector:        GenMS,
		HeapLimit:        32 << 20,
		Monitoring:       true,
		SamplingInterval: 25_000,
		Event:            cache.EventL1Miss,
		Adaptive:         true,
		Seed:             7,
		TrackFields:      []string{"String::value"},
		Optimizations:    []OptimizationConfig{{Kind: opt.KindCoalloc}, {Kind: opt.KindCodeLayout}},
	}
}

// mutate changes v (an addressable field value) to a different value,
// recursing into pointers and structs. Returns false if it found
// nothing mutable.
func mutate(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
		return true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
		return true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
		return true
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1.5)
		return true
	case reflect.String:
		v.SetString(v.String() + "x")
		return true
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		return true
	case reflect.Pointer:
		elem := reflect.New(v.Type().Elem())
		if !mutate(elem.Elem()) {
			return false
		}
		v.Set(elem)
		return true
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if mutate(v.Field(i)) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// TestCanonicalFingerprintCoversEveryField walks Options by reflection
// and requires that mutating any field either changes the fingerprint
// or is explicitly listed in canonicalIgnored with its justification.
// A new Options field therefore cannot silently bypass the cache key:
// this test fails until the field is serialized or consciously waived.
func TestCanonicalFingerprintCoversEveryField(t *testing.T) {
	base := fullBase()
	h0 := base.Fingerprint()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		m := fullBase()
		fv := reflect.ValueOf(&m).Elem().Field(i)
		if !mutate(fv) {
			t.Fatalf("field %s: mutate found nothing to change — extend the helper", name)
		}
		h1 := m.Fingerprint()
		if _, ignored := canonicalIgnored[name]; ignored {
			if h1 != h0 {
				t.Errorf("field %s is declared passive (canonicalIgnored) but changed the fingerprint", name)
			}
			continue
		}
		if h1 == h0 {
			t.Errorf("field %s changed but the fingerprint did not — the cache would serve stale results; serialize it or add it to canonicalIgnored", name)
		}
	}
}

// TestCanonicalDefaultEquivalence pins the other half of the contract:
// values that resolve to the same behaviour hash identically.
func TestCanonicalDefaultEquivalence(t *testing.T) {
	mdef := monitor.DefaultConfig()
	cdef := coalloc.DefaultConfig()
	adef := aos.DefaultConfig()
	sdef := runtime.DefaultSamplingConfig()

	// The wiring overwrites Auto and TrackFields from the top-level
	// options, so differing values there are unreachable.
	mShadow := mdef
	mShadow.Auto = !mdef.Auto
	mShadow.TrackFields = []string{"unreachable"}

	cases := []struct {
		name string
		a, b Options
	}{
		{"zero vs explicit defaults",
			Options{},
			Options{Cache: cache.DefaultP4(), HeapLimit: 64 << 20}},
		{"nil vs default monitor config",
			Options{Monitoring: true, SamplingInterval: 1000},
			Options{Monitoring: true, SamplingInterval: 1000, MonitorConfig: &mdef}},
		{"monitor config differing only in overwritten fields",
			Options{Monitoring: true, SamplingInterval: 1000, MonitorConfig: &mdef},
			Options{Monitoring: true, SamplingInterval: 1000, MonitorConfig: &mShadow}},
		{"nil vs default coalloc config",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCoalloc}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCoalloc, Config: &cdef}}}},
		{"nil vs default aos config",
			Options{Adaptive: true},
			Options{Adaptive: true, AOSConfig: &adef}},
		{"passive observer fields",
			Options{Seed: 3},
			Options{Seed: 3, Observe: true, TraceCapacity: 9999}},
		{"monitoring knobs unreachable when monitoring off",
			Options{},
			Options{SamplingInterval: 12345, Event: cache.EventDTLBMiss, TrackFields: []string{"A::b"}}},
		{"zero-value vs explicit-default sampling config",
			Options{Sampling: &runtime.SamplingConfig{}},
			Options{Sampling: &sdef}},
	}
	for _, tc := range cases {
		if ha, hb := tc.a.Fingerprint(), tc.b.Fingerprint(); ha != hb {
			t.Errorf("%s: fingerprints differ\n a=%s\n b=%s\n aStr=%s\n bStr=%s",
				tc.name, ha, hb, tc.a.CanonicalString(), tc.b.CanonicalString())
		}
	}

	// And the converse sanity check: a behaviour-relevant difference
	// must not collapse.
	a := Options{Seed: 1}
	b := Options{Seed: 2}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("distinct seeds fingerprint identically")
	}

	// Sampling is semantic: exact (nil) and sampled (non-nil, even at
	// defaults) are different simulations and must not share cache keys.
	exact := Options{Seed: 1}
	sampled := Options{Seed: 1, Sampling: &runtime.SamplingConfig{}}
	if exact.Fingerprint() == sampled.Fingerprint() {
		t.Error("exact and sampled runs fingerprint identically — the run cache would serve estimates as exact results")
	}
	coarse := runtime.DefaultSamplingConfig()
	coarse.FFInstrs *= 2
	sampledCoarse := Options{Seed: 1, Sampling: &coarse}
	if sampled.Fingerprint() == sampledCoarse.Fingerprint() {
		t.Error("distinct sampling schedules fingerprint identically")
	}
}

// TestCanonicalOptimizationsEquivalence pins the cache-key contract of
// the optimization list: an entry's config resolves defaults before
// hashing (nil ≡ the kind's defaults ≡ zero fields that resolve to
// them, value ≡ pointer), entry order never reaches the key, and every
// entry — co-allocation included — is semantic: it perturbs both the
// exact and the prefix fingerprint.
func TestCanonicalOptimizationsEquivalence(t *testing.T) {
	ccfg := coalloc.DefaultConfig()
	gapped := ccfg
	gapped.Gap = 64
	clDef := opt.DefaultCodeLayoutConfig()
	clRes := clDef.WithDefaults()
	spDef := opt.DefaultSwPrefetchConfig()
	spRes := spDef.WithDefaults()

	equal := []struct {
		name string
		a, b Options
	}{
		{"coalloc entry config by value vs by pointer",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCoalloc, Config: ccfg}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCoalloc, Config: &ccfg}}}},
		{"nil vs default codelayout config",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCodeLayout}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCodeLayout, Config: &clDef}}}},
		{"default vs defaults-resolved codelayout config",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCodeLayout, Config: &clDef}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCodeLayout, Config: &clRes}}}},
		{"zero fields vs their defaults in a codelayout config",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCodeLayout, Config: &clDef}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCodeLayout,
				Config: opt.CodeLayoutConfig{HotMethods: clDef.HotMethods, MinSamples: clDef.MinSamples}}}}},
		{"config by value vs by pointer",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCodeLayout, Config: clDef}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCodeLayout, Config: &clDef}}}},
		{"untyped nil vs nil pointer config",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindSwPrefetch}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindSwPrefetch, Config: (*opt.SwPrefetchConfig)(nil)}}}},
		{"zero fields vs their defaults in a swprefetch config",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindSwPrefetch}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindSwPrefetch,
				Config: opt.SwPrefetchConfig{MinSamples: spDef.MinSamples}}}}},
		{"nil vs default swprefetch config",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindSwPrefetch}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindSwPrefetch, Config: &spDef}}}},
		{"default vs defaults-resolved swprefetch config",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindSwPrefetch, Config: &spDef}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindSwPrefetch, Config: &spRes}}}},
		{"nil vs empty optimization list",
			Options{Seed: 5},
			Options{Seed: 5, Optimizations: []OptimizationConfig{}}},
		{"entry order is canonicalized across three kinds",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{
				{Kind: opt.KindSwPrefetch}, {Kind: opt.KindCodeLayout}, {Kind: opt.KindCoalloc}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{
				{Kind: opt.KindCoalloc}, {Kind: opt.KindCodeLayout}, {Kind: opt.KindSwPrefetch}}}},
		{"entry order is canonicalized",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{
				{Kind: opt.KindCodeLayout}, {Kind: opt.KindCoalloc}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{
				{Kind: opt.KindCoalloc}, {Kind: opt.KindCodeLayout}}}},
	}
	for _, tc := range equal {
		if ha, hb := tc.a.Fingerprint(), tc.b.Fingerprint(); ha != hb {
			t.Errorf("%s: fingerprints differ\n aStr=%s\n bStr=%s",
				tc.name, tc.a.CanonicalString(), tc.b.CanonicalString())
		}
	}

	distinct := []struct {
		name string
		a, b Options
	}{
		{"coalloc presence",
			Options{Monitoring: true},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCoalloc}}}},
		{"coalloc tuning",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCoalloc}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCoalloc, Config: gapped}}}},
		{"codelayout presence",
			Options{Monitoring: true},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCodeLayout}}}},
		{"codelayout tuning",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCodeLayout}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCodeLayout,
				Config: &opt.CodeLayoutConfig{ICacheSize: 2 << 10}}}}},
		{"swprefetch presence",
			Options{Monitoring: true},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindSwPrefetch}}}},
		{"swprefetch tuning",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindSwPrefetch}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindSwPrefetch,
				Config: &opt.SwPrefetchConfig{Distance: 4}}}}},
		{"swprefetch vs codelayout entry",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindSwPrefetch}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCodeLayout}}}},
		{"a config of another kind's type still perturbs the hash",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindSwPrefetch}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindSwPrefetch,
				Config: opt.CodeLayoutConfig{}}}}},
		{"unknown kinds still perturb the hash",
			Options{Monitoring: true},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: "future"}}}},
	}
	for _, tc := range distinct {
		if tc.a.Fingerprint() == tc.b.Fingerprint() {
			t.Errorf("%s: fingerprints collapse\n aStr=%s\n bStr=%s",
				tc.name, tc.a.CanonicalString(), tc.b.CanonicalString())
		}
		// An optimization changes the simulation from its first sample
		// on, so configurations differing in one never share a prefix.
		if tc.a.PrefixFingerprint() == tc.b.PrefixFingerprint() {
			t.Errorf("%s: prefix fingerprints collapse", tc.name)
		}
	}
}

// TestCanonicalStringStable pins that serialization is deterministic
// across invocations (map-free, ordered fields).
func TestCanonicalStringStable(t *testing.T) {
	o := fullBase()
	s1 := o.CanonicalString()
	s2 := o.CanonicalString()
	if s1 != s2 {
		t.Fatalf("canonical string unstable:\n%s\n%s", s1, s2)
	}
	if len(s1) == 0 {
		t.Fatal("empty canonical string")
	}
}
