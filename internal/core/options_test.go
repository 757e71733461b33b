package core_test

import (
	"errors"
	"testing"

	"hpmvm/internal/core"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/monitor"
	"hpmvm/internal/opt"
	"hpmvm/internal/vm/aos"
)

// coallocEntry is the Options.Optimizations value enabling the paper's
// co-allocation with its default tuning.
var coallocEntry = []core.OptimizationConfig{{Kind: opt.KindCoalloc}}

func TestValidateRejectsBadCombos(t *testing.T) {
	mcfg := monitor.DefaultConfig()
	acfg := aos.DefaultConfig()
	cases := []struct {
		name string
		opts core.Options
	}{
		{"unknown collector", core.Options{Collector: core.CollectorKind(99)}},
		{"coalloc without monitoring", core.Options{Optimizations: coallocEntry}},
		{"coalloc on gencopy", core.Options{Collector: core.GenCopy, Monitoring: true, Optimizations: coallocEntry}},
		{"event out of range", core.Options{Event: cache.NumEventKinds}},
		{"negative trace capacity", core.Options{TraceCapacity: -1}},
		{"monitor config without monitoring", core.Options{MonitorConfig: &mcfg}},
		{"aos config without adaptive", core.Options{AOSConfig: &acfg}},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the combination", tc.name)
			continue
		}
		if !errors.Is(err, core.ErrBadOptions) {
			t.Errorf("%s: error %v does not wrap core.ErrBadOptions", tc.name, err)
		}
	}

	good := []core.Options{
		{},
		{Monitoring: true, SamplingInterval: 25_000, Optimizations: coallocEntry},
		{Collector: core.GenCopy, Monitoring: true},
		{Adaptive: true},
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("valid options %+v rejected: %v", o, err)
		}
	}
}

// TestParseCollector covers every collector spelling the CLIs and the
// API accept and one that they reject.
func TestParseCollector(t *testing.T) {
	accepted := map[string]core.CollectorKind{
		"": core.GenMS, "genms": core.GenMS, "GenMS": core.GenMS, "GENMS": core.GenMS,
		"gencopy": core.GenCopy, "GenCopy": core.GenCopy, "GENCOPY": core.GenCopy,
	}
	for s, want := range accepted {
		if got, err := core.ParseCollector(s); err != nil || got != want {
			t.Errorf("ParseCollector(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	_, err := core.ParseCollector("semispace")
	if !errors.Is(err, core.ErrBadOptions) ||
		err.Error() != `invalid options: unknown collector "semispace" (genms or gencopy)` {
		t.Errorf(`ParseCollector("semispace") error = %v`, err)
	}
}
