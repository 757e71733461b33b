package bench

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"hpmvm/internal/coalloc"
	"hpmvm/internal/core"
)

// TestWarmStartMatchesColdRun pins the bench-layer warm-start contract
// on the tiny unit workload: an exact-config RunFromSnapshot reproduces
// the cold run's metrics, and the guard rails (workload tag, option
// mismatch, the sampling interval included) fail loudly.
func TestWarmStartMatchesColdRun(t *testing.T) {
	b, _ := Get("_unit_tiny")
	cfg := RunConfig{Monitoring: true, Interval: 1000, Seed: 3, Observe: true}

	cold, _, err := Run(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := RunPrefix(context.Background(), b, cfg, cold.Cycles/2)
	if err != nil {
		t.Fatal(err)
	}

	warm, _, err := RunFromSnapshot(context.Background(), b, cfg, snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cycles != cold.Cycles {
		t.Errorf("warm cycles = %d, cold = %d", warm.Cycles, cold.Cycles)
	}
	if !reflect.DeepEqual(warm.Cache, cold.Cache) {
		t.Errorf("warm cache stats %+v != cold %+v", warm.Cache, cold.Cache)
	}
	if warm.SamplesTaken != cold.SamplesTaken {
		t.Errorf("warm samples = %d, cold = %d", warm.SamplesTaken, cold.SamplesTaken)
	}
	if !reflect.DeepEqual(warm.Results, cold.Results) {
		t.Errorf("warm results %v != cold %v", warm.Results, cold.Results)
	}

	// Wrong workload tag.
	sn, err := core.DecodeSnapshot(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	sn.Tag = "somebody_else"
	if _, _, err := RunFromSnapshot(context.Background(), b, cfg, core.EncodeSnapshot(sn)); err == nil ||
		!strings.Contains(err.Error(), "somebody_else") {
		t.Errorf("tag mismatch not rejected: %v", err)
	}

	// An option mismatch surfaces the typed sentinel, whichever option.
	heap, interval := cfg, cfg
	heap.Heap = 8 << 20
	interval.Interval = 500
	for _, bad := range []RunConfig{heap, interval} {
		if _, _, err := RunFromSnapshot(context.Background(), b, bad, snapshot); !errors.Is(err, core.ErrSnapshotMismatch) {
			t.Errorf("option mismatch err = %v, want ErrSnapshotMismatch", err)
		}
	}
}

// TestWarmStartKeepsRecords resumes db's Figure 8 run from a snapshot
// taken after the intervention and before its revert: the resumed run
// ends with the cold run's cycles, counter rows and decision records.
func TestWarmStartKeepsRecords(t *testing.T) {
	if raceLane {
		t.Skip("db-sized run")
	}
	b, _ := Get("db")
	cfg := RunConfig{Coalloc: true, CoallocConfig: &coalloc.Config{GapAtCycle: Fig8GapAtCycle}, Interval: 2500, Seed: 1}
	cold, coldSys, err := Run(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := RunPrefix(context.Background(), b, cfg, 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	warm, warmSys, err := RunFromSnapshot(context.Background(), b, cfg, snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cycles != cold.Cycles || !reflect.DeepEqual(warm.Opt, cold.Opt) {
		t.Errorf("warm run: %d cycles, %+v; cold: %d cycles, %+v", warm.Cycles, warm.Opt, cold.Cycles, cold.Opt)
	}
	if w, c := warmSys.OptManager.Records(), coldSys.OptManager.Records(); !reflect.DeepEqual(w, c) {
		t.Errorf("warm records:\n%v\ncold records:\n%v", w, c)
	}
}

// TestRunPrefixTooLate pins the error when the workload finishes
// before the requested pause cycle.
func TestRunPrefixTooLate(t *testing.T) {
	b, _ := Get("_unit_tiny")
	cold, _, err := Run(b, RunConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPrefix(context.Background(), b, RunConfig{Seed: 3}, cold.Cycles*10); err == nil {
		t.Error("prefix beyond program end did not fail")
	}
}
