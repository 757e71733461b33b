package core_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"hpmvm/internal/core"
	"hpmvm/internal/opt"
	"hpmvm/internal/snap"
)

// FuzzOptRestore feeds arbitrary bytes to the Restore of every managed
// optimization: a component blob is untrusted input (the serve layer's
// snapshot cache hands them across processes), so Restore must never
// panic and must fail only with an error wrapping snap.ErrDecode. The
// seed corpus is each kind's valid blob from a paused run — eager
// configs, so the blobs carry history, detector/hotness state and logs
// — plus its three malformed shapes: truncated, an absurd length
// prefix, a trailing byte. Runs over the seeds as a plain test;
// `make fuzz-smoke` explores further.
func FuzzOptRestore(f *testing.F) {
	base := core.Options{HeapLimit: 8 << 20, Monitoring: true, SamplingInterval: 500}
	coalloc, layout, prefetch := base, base, base
	coalloc.Coalloc = true
	layout.Optimizations = []core.OptimizationConfig{{Kind: opt.KindCodeLayout,
		Config: opt.CodeLayoutConfig{MinSamples: 1, EvalPeriods: 1, MinMissRate: -1}}}
	prefetch.Optimizations = []core.OptimizationConfig{{Kind: opt.KindSwPrefetch,
		Config: opt.SwPrefetchConfig{MinSamples: 1, EvalPeriods: 1, MinConfidence: 2}}}

	type target struct {
		valid snap.ComponentState
		into  snap.Checkpointable
	}
	var targets []target
	for _, opts := range []core.Options{coalloc, layout, prefetch} {
		sn, err := core.DecodeSnapshot(pausedSnapshot(f, opts))
		if err != nil {
			f.Fatal(err)
		}
		fresh, _ := buildSnapSystem(f, opts)
		op := fresh.OptManager.Optimizations()[0]
		d, _ := opt.Lookup(op.Kind())
		for _, st := range sn.Components {
			if st.Component == d.Component {
				targets = append(targets, target{valid: st, into: op.(snap.Checkpointable)})
			}
		}
	}
	if len(targets) != 3 {
		f.Fatalf("found %d managed component blobs, want 3", len(targets))
	}
	for i, tg := range targets {
		data := tg.valid.Data
		oversized := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(oversized[8:], 1<<62)
		f.Add(uint8(i), data)
		f.Add(uint8(i), data[:len(data)/2])
		f.Add(uint8(i), oversized)
		f.Add(uint8(i), append(append([]byte(nil), data...), 0))
	}

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		tg := targets[int(which)%len(targets)]
		st := snap.ComponentState{Component: tg.valid.Component, Version: tg.valid.Version, Data: data}
		if err := tg.into.Restore(st); err != nil && !errors.Is(err, snap.ErrDecode) {
			t.Fatalf("%s: Restore failed with %v, which does not wrap snap.ErrDecode", st.Component, err)
		}
	})
}
