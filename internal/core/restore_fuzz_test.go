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
	coalloc.Optimizations = coallocEntry
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

// corruptContainer is a well-formed snapshot container — magic,
// version, empty strings, zero counters — whose component count is
// 1<<62.
func corruptContainer() []byte {
	blob := core.EncodeSnapshot(&core.Snapshot{Version: core.SnapshotVersion})
	binary.LittleEndian.PutUint64(blob[len(blob)-8:], 1<<62)
	return blob
}

// TestRestoreRejectsCorruptCounts pins that no decoder sizes an
// allocation from a count the blob does not back: the container with an
// absurd component count, and every component blob with 1<<60 written
// over each of its leading offsets (which reaches every component's
// first count, and the header fields before it), must be rejected with
// snap.ErrDecode or — where the overwritten field is not validated —
// accepted, never panic. Each component is swept once, on the first
// configuration that builds it; the adaptive one comes last so
// vm/runtime, whose Restore replays a non-empty recompile log into the
// VM, is swept where that log is empty.
func TestRestoreRejectsCorruptCounts(t *testing.T) {
	if _, err := core.DecodeSnapshot(corruptContainer()); !errors.Is(err, snap.ErrDecode) {
		t.Errorf("DecodeSnapshot(component count 1<<62) error = %v, want snap.ErrDecode", err)
	}

	const sweep = 192 // past the first count of every component
	swept := make(map[string]bool)
	for _, opts := range []core.Options{
		{HeapLimit: 8 << 20, Monitoring: true, SamplingInterval: 500, Optimizations: coallocEntry, Observe: true},
		{Collector: core.GenCopy, HeapLimit: 12 << 20},
		{HeapLimit: 8 << 20, Adaptive: true},
	} {
		sn, err := core.DecodeSnapshot(pausedSnapshot(t, opts))
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := buildSnapSystem(t, opts)
		targets := fresh.Checkpointables()
		for _, st := range sn.Components {
			if swept[st.Component] {
				continue
			}
			swept[st.Component] = true
			rejected := 0
			for off := 0; off < sweep && off+8 <= len(st.Data); off++ {
				field := st.Data[off : off+8]
				orig := binary.LittleEndian.Uint64(field)
				binary.LittleEndian.PutUint64(field, 1<<60)
				err := targets[st.Component].Restore(st)
				binary.LittleEndian.PutUint64(field, orig)
				if err != nil && !errors.Is(err, snap.ErrDecode) {
					t.Errorf("%s: 1<<60 at offset %d: Restore failed with %v, which does not wrap snap.ErrDecode",
						st.Component, off, err)
				}
				if err != nil {
					rejected++
				}
			}
			if rejected == 0 {
				t.Errorf("%s: no corrupted offset was rejected", st.Component)
			}
		}
	}
	if len(swept) != 12 {
		t.Errorf("swept %d components, want all 12: %v", len(swept), swept)
	}
}

// FuzzDecodeSnapshot does for the snapshot container what
// FuzzOptRestore does for component blobs: every warm start and
// bench.RunFromSnapshot parses one, so DecodeSnapshot must never panic
// and must fail only with an error wrapping snap.ErrDecode.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(pausedSnapshot(f, core.Options{HeapLimit: 8 << 20}))
	f.Add(corruptContainer())
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := core.DecodeSnapshot(data); err != nil && !errors.Is(err, snap.ErrDecode) {
			t.Fatalf("DecodeSnapshot failed with %v, which does not wrap snap.ErrDecode", err)
		}
	})
}
