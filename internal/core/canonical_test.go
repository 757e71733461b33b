package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hpmvm/internal/coalloc"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/opt"
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
	var cdef coalloc.Config
	sdef := runtime.DefaultSamplingConfig()

	cases := []struct {
		name string
		a, b Options
	}{
		{"zero vs explicit defaults",
			Options{},
			Options{Cache: cache.DefaultP4(), HeapLimit: 64 << 20}},
		{"nil vs default coalloc config",
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCoalloc}}},
			Options{Monitoring: true, Optimizations: []OptimizationConfig{{Kind: opt.KindCoalloc, Config: &cdef}}}},
		{"passive observer field",
			Options{Seed: 3},
			Options{Seed: 3, Observe: true}},
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
	var ccfg coalloc.Config
	gapped := coalloc.Config{Gap: 64}
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

// fmtCanonical is the fmt-driven serializer appendCanonical replaced,
// kept as its reference: the two must agree byte for byte.
func fmtCanonical(b *strings.Builder, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprintf(b, "%s=nil;", name)
			return
		}
		fmtCanonical(b, name, v.Elem())
	case reflect.Struct:
		fmt.Fprintf(b, "%s{", name)
		for i := 0; i < v.NumField(); i++ {
			fmtCanonical(b, v.Type().Field(i).Name, v.Field(i))
		}
		b.WriteString("};")
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(b, "%s[", name)
		for i := 0; i < v.Len(); i++ {
			fmtCanonical(b, fmt.Sprintf("%d", i), v.Index(i))
		}
		b.WriteString("];")
	case reflect.Map:
		rendered := make([]string, 0, v.Len())
		for _, k := range v.MapKeys() {
			var kb, vb strings.Builder
			fmtCanonical(&kb, "k", k)
			fmtCanonical(&vb, "v", v.MapIndex(k))
			rendered = append(rendered, kb.String()+vb.String())
		}
		sort.Strings(rendered)
		fmt.Fprintf(b, "%s<%s>;", name, strings.Join(rendered, ""))
	default:
		fmt.Fprintf(b, "%s=%v;", name, v.Interface())
	}
}

// probeErr is a scalar that formats itself through error, which %v
// prefers over fmt.Stringer.
type probeErr int

func (e probeErr) Error() string  { return fmt.Sprintf("err%d", int(e)) }
func (e probeErr) String() string { return "not this" }

// canonProbe holds every scalar kind appendCanonical serializes, the
// Stringer enums Options carries, and each container shape.
type canonProbe struct {
	B   bool
	S   string
	I   int
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	U   uint
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	F32 float32
	F64 float64

	Coll CollectorKind
	Ev   cache.EventKind
	Err  probeErr

	Ptr, NilPtr *float64
	Any, NilAny any
	Slice       []float64
	Arr         [2]uint8
	Map         map[string]float64
}

// TestCanonicalMatchesFmt pins that the strconv serializer writes
// exactly the text the fmt-driven one did — scalar edge cases, Stringer
// and error types, and real canonical Options — so no key moves.
func TestCanonicalMatchesFmt(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 0.1, 1.0 / 3, 1e6, 1e20, 1e21, 1e-4, 1e-5,
		123456789.125, 3.4e38, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	check := func(label string, v any) {
		t.Helper()
		var want strings.Builder
		fmtCanonical(&want, "x", reflect.ValueOf(v))
		if got := string(appendCanonical(nil, "x", reflect.ValueOf(v))); got != want.String() {
			t.Errorf("%s:\n got %s\nwant %s", label, got, want.String())
		}
	}
	for i, f := range floats {
		p := canonProbe{
			B: i%2 == 0, S: fmt.Sprint("s;", i), I: -i, I8: math.MinInt8, I16: math.MaxInt16, I32: math.MinInt32,
			I64: math.MinInt64 + int64(i), U: uint(i), U8: math.MaxUint8, U16: 7, U32: math.MaxUint32, U64: math.MaxUint64 - uint64(i),
			F32: float32(f), F64: f, Coll: CollectorKind(i % 3), Ev: cache.EventKind(i % 5), Err: probeErr(i),
			Ptr: &floats[i], Any: floats[len(floats)-1-i], Slice: floats[:i], Arr: [2]uint8{uint8(i), 255},
			Map: map[string]float64{"a": f, "b": -f, fmt.Sprint(i): 1},
		}
		check(fmt.Sprintf("probe %d (%v)", i, f), p)
	}
	sampled := fullBase()
	sampled.Sampling = &runtime.SamplingConfig{}
	for label, o := range map[string]Options{"hot": {HeapLimit: 16 << 20, Seed: 1}, "full": fullBase(), "sampled": sampled} {
		check(label, o.Canonical())
	}
}

// canonicalSink keeps BenchmarkCanonicalString's result live.
var canonicalSink string

// BenchmarkCanonicalString times the canonical serialization every
// hpmvmd request pays once per hop: "hot" is the benchmark's repeated
// fop request as the serve resolver resolves it (4× fop's 4 MiB minimum
// heap, no monitoring), "managed" a monitored two-kind configuration.
func BenchmarkCanonicalString(b *testing.B) {
	for _, bc := range []struct {
		name string
		o    Options
	}{
		{"hot", Options{HeapLimit: 16 << 20, Seed: 1}},
		{"managed", fullBase()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				canonicalSink = bc.o.CanonicalString()
			}
		})
	}
}
