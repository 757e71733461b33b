package core_test

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"hpmvm/internal/core"
	"hpmvm/internal/obs"
	"hpmvm/internal/opt"
	"hpmvm/internal/vm/classfile"
)

// The keystone of the Snapshot/Restore contract: running to cycle C,
// snapshotting, restoring into a freshly built-and-booted System and
// running to the end must be byte-identical to the uninterrupted run —
// across both collectors, with and without monitoring/co-allocation,
// and through the AOS recompile-replay path. "Byte-identical" is
// checked at the strongest level available: the final whole-system
// snapshots of both runs must encode to equal bytes, which covers
// every register, page, cache line, counter, series sample and trace
// event in the simulation.

const (
	snapNodes  = 40_000
	snapPause  = 1_500_000
	snapBudget = 500_000_000
)

func snapConfigs() map[string]core.Options {
	return map[string]core.Options{
		"genms-plain": {HeapLimit: 8 << 20, Observe: true},
		"genms-monitoring": {HeapLimit: 8 << 20,
			Monitoring: true, SamplingInterval: 1000, Observe: true},
		"genms-monitoring-coalloc": {HeapLimit: 8 << 20,
			Monitoring: true, SamplingInterval: 500, Optimizations: coallocEntry, Observe: true},
		"gencopy-monitoring": {Collector: core.GenCopy, HeapLimit: 12 << 20,
			Monitoring: true, SamplingInterval: 1000, Observe: true},
		"genms-adaptive": {HeapLimit: 8 << 20,
			Monitoring: true, SamplingInterval: 1000, Adaptive: true, Observe: true},
		// An eager swprefetch config (no sample floor, 1-poll window) so
		// the pause lands with live detector streams, an installed site
		// table and possibly an open decision — the opt/swprefetch and
		// cache sw-tail snapshot sections must carry all of it.
		"genms-monitoring-swprefetch": {HeapLimit: 8 << 20,
			Monitoring: true, SamplingInterval: 500, Observe: true,
			Optimizations: []core.OptimizationConfig{{Kind: opt.KindSwPrefetch,
				Config: &opt.SwPrefetchConfig{MinSamples: 1, EvalPeriods: 1, MinConfidence: 2}}}},
	}
}

// buildSnapSystem builds and boots a list-workload system. Adaptive
// configurations boot baseline-everywhere so the AOS recompiles
// mid-run (exercising the recompile-log replay on restore); the rest
// boot under the all-optimized plan.
func buildSnapSystem(t testing.TB, opts core.Options) (*core.System, *classfile.Method) {
	t.Helper()
	u, main := buildListProgram(t, snapNodes)
	sys, err := core.NewSystemOpts(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Adaptive {
		if err := sys.Boot(nil, nil); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := sys.Boot(allOpt(2)(u), nil); err != nil {
			t.Fatal(err)
		}
	}
	return sys, main
}

// finalImage captures a finished system's full state as bytes.
func finalImage(t *testing.T, sys *core.System) []byte {
	t.Helper()
	sn, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return core.EncodeSnapshot(sn)
}

func checkListResults(t *testing.T, sys *core.System) {
	t.Helper()
	want := int64(snapNodes) * (snapNodes - 1) / 2
	got := sys.VM.Results()
	if len(got) != 2 || got[0] != want || got[1] != want {
		t.Fatalf("results = %v, want [%d %d]", got, want, want)
	}
}

// pausedSnapshot runs a fresh system to the fixed pause cycle and
// captures it, returning the encoded snapshot.
func pausedSnapshot(t testing.TB, opts core.Options) []byte {
	t.Helper()
	return pausedSnapshotAt(t, opts, snapPause)
}

func pausedSnapshotAt(t testing.TB, opts core.Options, pause uint64) []byte {
	t.Helper()
	origin, main := buildSnapSystem(t, opts)
	paused, err := origin.RunToCycle(context.Background(), main, snapBudget, pause)
	if err != nil {
		t.Fatal(err)
	}
	if !paused {
		t.Fatalf("program finished before pause cycle %d", pause)
	}
	sn, err := origin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return core.EncodeSnapshot(sn)
}

func TestSnapshotRestoreByteIdentical(t *testing.T) {
	for name, opts := range snapConfigs() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()

			// Uninterrupted reference run.
			cold, main := buildSnapSystem(t, opts)
			if err := cold.RunContext(ctx, main, snapBudget); err != nil {
				t.Fatal(err)
			}
			checkListResults(t, cold)
			coldImg := finalImage(t, cold)

			// Beside the fixed pause, four drawn from the first 95% of the
			// run (a pause lands on the next scheduling point, so one any
			// later could find the program finished): heap, sample-buffer
			// and decision states the fixed cycle never lands on. The seed
			// is the configuration's name, so a failure names a
			// reproducible cycle.
			rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE([]byte(name)))))
			span := int64(cold.VM.Cycles() / 100 * 95)
			pauses := []uint64{snapPause}
			for i := 0; i < 4; i++ {
				pauses = append(pauses, 1+uint64(rng.Int63n(span)))
			}
			for _, pause := range pauses {
				// Pause at C, snapshot, restore into a fresh system, resume.
				enc := pausedSnapshotAt(t, opts, pause)
				warm, _ := buildSnapSystem(t, opts)
				if _, err := core.RestoreSystem(warm, enc); err != nil {
					t.Fatalf("pause %d: %v", pause, err)
				}
				// The pause lands at the first scheduling point at or after
				// pauseAt (instructions are atomic), so the restored counter
				// is >= the requested cycle, never behind it.
				if warm.VM.Cycles() < pause {
					t.Fatalf("restored cycle counter = %d, want >= %d", warm.VM.Cycles(), pause)
				}
				if err := warm.ResumeContext(ctx, snapBudget); err != nil {
					t.Fatalf("pause %d: %v", pause, err)
				}
				checkListResults(t, warm)

				if c, w := cold.VM.Cycles(), warm.VM.Cycles(); c != w {
					t.Errorf("pause %d: final cycles: cold %d, warm %d", pause, c, w)
				}
				if warmImg := finalImage(t, warm); !bytes.Equal(coldImg, warmImg) {
					t.Errorf("pause %d: resumed run diverged", pause)
					reportImageDiff(t, coldImg, warmImg)
				}
				// An exact restore must not leave a restore marker: the warm
				// trace has to be indistinguishable from the cold one.
				for _, e := range warm.Obs.Events() {
					if e.Kind == obs.EvSnapshotRestored {
						t.Errorf("pause %d: exact restore emitted EvSnapshotRestored", pause)
					}
				}
			}
		})
	}
}

// reportImageDiff decodes both images and names the first component
// whose bytes differ, so a determinism regression points at a layer
// instead of a byte offset.
func reportImageDiff(t *testing.T, coldImg, warmImg []byte) {
	t.Helper()
	coldSn, err1 := core.DecodeSnapshot(coldImg)
	warmSn, err2 := core.DecodeSnapshot(warmImg)
	if err1 != nil || err2 != nil {
		t.Fatalf("final images differ and decode failed: %v / %v", err1, err2)
	}
	if coldSn.RngDraws != warmSn.RngDraws {
		t.Errorf("rng draws: cold %d, warm %d", coldSn.RngDraws, warmSn.RngDraws)
	}
	for i := range coldSn.Components {
		if i >= len(warmSn.Components) {
			break
		}
		c, w := coldSn.Components[i], warmSn.Components[i]
		if c.Component != w.Component {
			t.Errorf("component %d: cold %q, warm %q", i, c.Component, w.Component)
			continue
		}
		if !bytes.Equal(c.Data, w.Data) {
			t.Errorf("component %q state differs (%d vs %d bytes)", c.Component, len(c.Data), len(w.Data))
		}
	}
	t.Fatal("cold and warm final snapshots differ")
}

func TestSnapshotDivergentRestore(t *testing.T) {
	base := core.Options{HeapLimit: 8 << 20, Monitoring: true, SamplingInterval: 1000, Observe: true}
	enc := pausedSnapshot(t, base)

	div := base
	div.SamplingInterval = 2000
	warm, _ := buildSnapSystem(t, div)
	sn, err := core.RestoreSystem(warm, enc)
	if err != nil {
		t.Fatal(err)
	}
	if sn.SamplingInterval != 1000 {
		t.Errorf("snapshot interval = %d, want 1000", sn.SamplingInterval)
	}
	if got := warm.Module.Interval(); got != 2000 {
		t.Errorf("retargeted interval = %d, want 2000", got)
	}
	var marked bool
	for _, e := range warm.Obs.Events() {
		if e.Kind == obs.EvSnapshotRestored {
			marked = true
			if e.Arg1 != 1000 || e.Arg2 != 2000 {
				t.Errorf("EvSnapshotRestored args = (%d,%d), want (1000,2000)", e.Arg1, e.Arg2)
			}
		}
	}
	if !marked {
		t.Error("divergent restore did not emit EvSnapshotRestored")
	}
	if err := warm.ResumeContext(context.Background(), snapBudget); err != nil {
		t.Fatal(err)
	}
	checkListResults(t, warm)
}

func TestSnapshotMismatchSentinel(t *testing.T) {
	base := core.Options{HeapLimit: 8 << 20, Monitoring: true, SamplingInterval: 1000}
	enc := pausedSnapshot(t, base)

	for name, bad := range map[string]core.Options{
		"collector": {Collector: core.GenCopy, HeapLimit: 12 << 20,
			Monitoring: true, SamplingInterval: 1000},
		"heap-limit": {HeapLimit: 16 << 20, Monitoring: true, SamplingInterval: 1000},
		"seed":       {HeapLimit: 8 << 20, Monitoring: true, SamplingInterval: 1000, Seed: 7},
		"coalloc": {HeapLimit: 8 << 20,
			Monitoring: true, SamplingInterval: 1000, Optimizations: coallocEntry},
		"no-monitoring": {HeapLimit: 8 << 20},
	} {
		t.Run(name, func(t *testing.T) {
			sys, _ := buildSnapSystem(t, bad)
			if _, err := core.RestoreSystem(sys, enc); !errors.Is(err, core.ErrSnapshotMismatch) {
				t.Fatalf("restore err = %v, want ErrSnapshotMismatch", err)
			}
		})
	}

	// Sampling interval alone is prefix-eligible, never a mismatch.
	t.Run("interval-is-prefix-eligible", func(t *testing.T) {
		div := base
		div.SamplingInterval = 4000
		sys, _ := buildSnapSystem(t, div)
		if _, err := core.RestoreSystem(sys, enc); err != nil {
			t.Fatalf("interval-only divergence should restore, got %v", err)
		}
	})
}

func TestSnapshotRestoreLifecycleErrors(t *testing.T) {
	base := core.Options{HeapLimit: 8 << 20}
	enc := pausedSnapshot(t, base)

	// A system that already ran refuses to restore.
	ran, main := buildSnapSystem(t, base)
	if err := ran.RunContext(context.Background(), main, snapBudget); err != nil {
		t.Fatal(err)
	}
	if _, err := core.RestoreSystem(ran, enc); err == nil {
		t.Fatal("restore into an already-run system succeeded")
	}

	// Corrupt and truncated payloads fail with decode errors, not
	// panics or partial restores.
	fresh, _ := buildSnapSystem(t, base)
	if _, err := core.RestoreSystem(fresh, enc[:len(enc)/2]); err == nil {
		t.Fatal("truncated snapshot restored")
	}
	garbled := bytes.Clone(enc)
	garbled[0] ^= 0xff
	if _, err := core.RestoreSystem(fresh, garbled); err == nil {
		t.Fatal("garbled snapshot restored")
	}
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	enc := pausedSnapshot(t, core.Options{HeapLimit: 8 << 20, Monitoring: true, SamplingInterval: 1000})
	sn, err := core.DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Version != core.SnapshotVersion || sn.Cycle < snapPause {
		t.Fatalf("decoded header: version %d cycle %d", sn.Version, sn.Cycle)
	}
	if !bytes.Equal(core.EncodeSnapshot(sn), enc) {
		t.Fatal("encode(decode(x)) != x")
	}
}
