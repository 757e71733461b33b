package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
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

// contractConfigs are three configurations that between them build all
// twelve snapshot components.
func contractConfigs() []core.Options {
	return []core.Options{
		{HeapLimit: 8 << 20, Monitoring: true, SamplingInterval: 500, Optimizations: coallocEntry, Observe: true},
		{Collector: core.GenCopy, HeapLimit: 12 << 20},
		{HeapLimit: 8 << 20, Adaptive: true},
	}
}

// padLogBlob returns a vm/runtime blob whose recompile log is the one
// code-layout pad entry {method id -1, level n}: Restore hands a pad's
// level to InstallPad, which allocates that many instructions. valid
// must carry an empty log, so that its last word is the log count.
func padLogBlob(t testing.TB, valid []byte, n int64) []byte {
	t.Helper()
	if binary.LittleEndian.Uint64(valid[len(valid)-8:]) != 0 {
		t.Fatal("vm/runtime blob does not end in an empty recompile log")
	}
	blob := bytes.Clone(valid[:len(valid)-8])
	blob = binary.LittleEndian.AppendUint64(blob, 1)
	blob = binary.LittleEndian.AppendUint64(blob, ^uint64(0))
	return binary.LittleEndian.AppendUint64(blob, uint64(n))
}

// TestRestoreContract holds every component to snap.Checkpointable's
// Restore contract on untrusted bytes: sampled truncations, one trailing
// byte, 1<<62 written over the leading offsets (which reaches every
// component's first count and the header fields before it) and over
// offsets sampled across the whole blob, and for vm/runtime a pad entry
// of 1<<40 and of -1 instructions. Restore must not panic, must fail
// only with snap.ErrDecode, and after a failure the receiver's own
// Snapshot must return the bytes it returned before. An overwrite that
// lands on a plain counter is still a valid encoding and may be
// accepted; the component then holds the corrupt state, so the next
// attempt gets a freshly booted system. The container with an absurd
// component count rides along. Components are swept in every
// configuration that builds them, so vm/runtime is swept with an empty
// recompile log and, under the adaptive configuration, a replayed one.
func TestRestoreContract(t *testing.T) {
	if _, err := core.DecodeSnapshot(corruptContainer()); !errors.Is(err, snap.ErrDecode) {
		t.Errorf("DecodeSnapshot(component count 1<<62) error = %v, want snap.ErrDecode", err)
	}

	const dense, sampled = 192, 64
	swept := make(map[string]bool)
	for _, opts := range contractConfigs() {
		sn, err := core.DecodeSnapshot(pausedSnapshot(t, opts))
		if err != nil {
			t.Fatal(err)
		}
		// The PRNG is repositioned draw by draw, so a header claiming more
		// draws than cycles must be refused before that loop runs.
		forged := *sn
		forged.RngDraws = forged.Cycle + 1
		if fresh, _ := buildSnapSystem(t, opts); !errors.Is(fresh.Restore(&forged), snap.ErrDecode) {
			t.Errorf("Restore(%d PRNG draws in %d cycles) did not fail with snap.ErrDecode", forged.RngDraws, forged.Cycle)
		}

		var targets map[string]snap.Checkpointable // nil: boot a fresh system first
		for _, st := range sn.Components {
			swept[st.Component] = true
			rejected := 0
			try := func(what string, data []byte, mustFail bool) {
				t.Helper()
				if targets == nil {
					fresh, _ := buildSnapSystem(t, opts)
					targets = fresh.Checkpointables()
				}
				target := targets[st.Component]
				before := target.Snapshot().Data
				err := func() (err error) {
					defer func() {
						if p := recover(); p != nil {
							err = fmt.Errorf("panic: %v", p)
						}
					}()
					return target.Restore(snap.ComponentState{Component: st.Component, Version: st.Version, Data: data})
				}()
				switch {
				case err == nil:
					targets = nil
					if mustFail {
						t.Errorf("%s %s: malformed blob accepted", st.Component, what)
					}
					return
				case !errors.Is(err, snap.ErrDecode):
					t.Errorf("%s %s: Restore failed with %v, which does not wrap snap.ErrDecode", st.Component, what, err)
				}
				rejected++
				if !bytes.Equal(target.Snapshot().Data, before) {
					t.Errorf("%s %s: failed Restore modified the receiver", st.Component, what)
					targets = nil
				}
			}

			data := st.Data
			rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE([]byte(st.Component)))))
			try("empty", nil, true)
			try("truncated by one byte", data[:len(data)-1], true)
			for i := 0; i < sampled/2; i++ {
				n := rng.Intn(len(data))
				try(fmt.Sprintf("truncated to %d bytes", n), data[:n], true)
			}
			try("trailing byte", append(bytes.Clone(data), 0), true)
			last := len(data) - 8
			rejected = 0
			for i := 0; i < dense+sampled; i++ {
				off := i
				if i >= dense {
					off = rng.Intn(last + 1)
				}
				if off > last {
					continue
				}
				field := data[off : off+8]
				orig := binary.LittleEndian.Uint64(field)
				binary.LittleEndian.PutUint64(field, 1<<62)
				try(fmt.Sprintf("1<<62 at offset %d", off), data, false)
				binary.LittleEndian.PutUint64(field, orig)
			}
			if rejected == 0 {
				t.Errorf("%s: no 1<<62 overwrite was rejected", st.Component)
			}
			if st.Component == "vm/runtime" && !opts.Adaptive {
				try("pad of 1<<40 instructions", padLogBlob(t, data, 1<<40), true)
				try("pad of -1 instructions", padLogBlob(t, data, -1), true)
			}
		}
	}
	if len(swept) != 12 {
		t.Errorf("swept %d components, want all 12: %v", len(swept), swept)
	}
}

// FuzzRestoreSystem mutates whole encoded snapshots: RestoreSystem into
// a freshly booted system must return nil or an error wrapping
// snap.ErrDecode or core.ErrSnapshotMismatch, and never panic or size
// an allocation from the blob. Seeds are the paused snapshots of the
// three contract configurations plus the two crafted pad entries.
func FuzzRestoreSystem(f *testing.F) {
	configs := contractConfigs()
	for i, opts := range configs {
		enc := pausedSnapshot(f, opts)
		f.Add(uint8(i), enc)
		if i != 0 {
			continue
		}
		for _, n := range []int64{1 << 40, -1} {
			sn, err := core.DecodeSnapshot(enc)
			if err != nil {
				f.Fatal(err)
			}
			for j, st := range sn.Components {
				if st.Component == "vm/runtime" {
					sn.Components[j].Data = padLogBlob(f, st.Data, n)
				}
			}
			f.Add(uint8(i), core.EncodeSnapshot(sn))
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		sys, _ := buildSnapSystem(t, configs[int(which)%len(configs)])
		_, err := core.RestoreSystem(sys, data)
		if err != nil && !errors.Is(err, snap.ErrDecode) && !errors.Is(err, core.ErrSnapshotMismatch) {
			t.Fatalf("RestoreSystem failed with %v, which wraps neither snap.ErrDecode nor core.ErrSnapshotMismatch", err)
		}
	})
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
