package core_test

import (
	"errors"
	"testing"

	"hpmvm/internal/core"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/monitor"
	"hpmvm/internal/vm/aos"
)

func TestValidateRejectsBadCombos(t *testing.T) {
	mcfg := monitor.DefaultConfig()
	acfg := aos.DefaultConfig()
	cases := []struct {
		name string
		opts core.Options
	}{
		{"unknown collector", core.Options{Collector: core.CollectorKind(99)}},
		{"coalloc without monitoring", core.Options{Coalloc: true}},
		{"coalloc on gencopy", core.Options{Collector: core.GenCopy, Monitoring: true, Coalloc: true}},
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
		{Monitoring: true, SamplingInterval: 25_000, Coalloc: true},
		{Collector: core.GenCopy, Monitoring: true},
		{Adaptive: true},
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("valid options %+v rejected: %v", o, err)
		}
	}
}
