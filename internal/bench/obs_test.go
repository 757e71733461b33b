package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"hpmvm/internal/core"
	"hpmvm/internal/obs"
)

// TestObserveCycleIdentical pins the observability layer's overhead
// contract at the system level: attaching the observer must not change
// a single simulated number. Identical seeds with and without Observe
// must give bit-identical cycles, cache stats and program results —
// under either collector, whose collections the observer must see.
func TestObserveCycleIdentical(t *testing.T) {
	for _, tc := range []struct {
		name, workload string
		cfg            RunConfig
	}{
		{"genms-coalloc", "_unit_tiny", RunConfig{Coalloc: true, Interval: 1000, Seed: 7}},
		{"genms-collecting", "_unit_churn", RunConfig{Seed: 7}},
		{"gencopy-collecting", "_unit_churn", RunConfig{Collector: core.GenCopy, Seed: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, _ := Get(tc.workload)
			cfg := tc.cfg

			plain, _, err := Run(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Observe = true
			cfg.TraceCapacity = 512
			observed, sys, err := Run(b, cfg)
			if err != nil {
				t.Fatal(err)
			}

			if plain.Obs != nil {
				t.Error("Result.Obs set without Observe")
			}
			if observed.Obs == nil {
				t.Fatal("Result.Obs missing with Observe")
			}
			if plain.Cycles != observed.Cycles {
				t.Errorf("observer perturbed cycles: %d vs %d", plain.Cycles, observed.Cycles)
			}
			if plain.Instret != observed.Instret {
				t.Errorf("observer perturbed instret: %d vs %d", plain.Instret, observed.Instret)
			}
			if plain.Cache != observed.Cache {
				t.Errorf("observer perturbed cache stats:\n%+v\nvs\n%+v", plain.Cache, observed.Cache)
			}
			if plain.MinorGCs != observed.MinorGCs || plain.MajorGCs != observed.MajorGCs ||
				plain.GCCycles != observed.GCCycles || plain.SamplesTaken != observed.SamplesTaken {
				t.Error("observer perturbed GC/sampling numbers")
			}
			if !reflect.DeepEqual(plain.Results, observed.Results) {
				t.Error("observer perturbed program results")
			}
			if collects := tc.workload == "_unit_churn"; collects != (observed.MinorGCs > 0) {
				t.Fatalf("%d minor collections on %s", observed.MinorGCs, tc.workload)
			}

			// The sampled counters must agree with the stats they mirror.
			for name, want := range map[string]uint64{
				"cache.accesses": observed.Cache.Accesses,
				"gc.minor":       observed.MinorGCs,
				"gc.major":       observed.MajorGCs,
				"gc.cycles":      observed.GCCycles,
			} {
				if v, ok := sys.Obs.Get(name); !ok || v != want {
					t.Errorf("%s counter = %d/%v, want %d", name, v, ok, want)
				}
			}
			if cfg.Coalloc {
				if v, ok := sys.Obs.Get("pebs.samples_taken"); !ok || v != observed.SamplesTaken {
					t.Errorf("pebs.samples_taken counter = %d/%v, want %d", v, ok, observed.SamplesTaken)
				}
				if sys.Obs.TraceDump().Emitted == 0 {
					t.Error("observed run emitted no trace events")
				}
			}
			// Every collection is traced: one start/end pair and one
			// phase interval each, together worth GCCycles.
			var starts, ends, traced uint64
			for _, e := range sys.Obs.Events() {
				switch e.Kind {
				case obs.EvGCStart:
					starts++
				case obs.EvGCEnd:
					ends++
					traced += e.Arg1
				}
			}
			collections := observed.MinorGCs + observed.MajorGCs
			if starts != collections || ends != collections || traced != observed.GCCycles {
				t.Errorf("trace has %d GC starts, %d ends, %d cycles; want %d, %d, %d",
					starts, ends, traced, collections, collections, observed.GCCycles)
			}
			var phased uint64
			for _, p := range observed.Obs.Phases {
				if p.Name == "gc.minor" || p.Name == "gc.major" {
					phased += p.Count
				}
			}
			if phased != collections {
				t.Errorf("gc.minor + gc.major phases count %d collections, want %d", phased, collections)
			}
		})
	}
}

// requiredCounters is the wiring checklist: one representative counter
// per instrumented subsystem. A missing name means a subsystem lost
// its SetObserver call.
var requiredCounters = []string{
	"cache.accesses",
	"cache.l1_misses",
	"pebs.samples_taken",
	"perfmon.reads",
	"monitor.polls",
	"gc.minor",
	"coalloc.active_fields",
	"vm.recompiles",
}

// TestObsSweepExportJSON runs the instrumented sweep on the unit
// workload and schema-checks both JSON exports round-trip.
func TestObsSweepExportJSON(t *testing.T) {
	recs, err := ObsSweep(ExpOptions{Workloads: []string{"_unit_tiny"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Workload != "_unit_tiny" {
		t.Fatalf("sweep records: %+v", recs)
	}
	if recs[0].Cycles == 0 {
		t.Error("sweep record has no cycle count")
	}

	var metricsBuf, traceBuf bytes.Buffer
	if err := WriteObsMetricsJSON(&metricsBuf, recs); err != nil {
		t.Fatal(err)
	}
	if err := WriteObsTraceJSON(&traceBuf, recs); err != nil {
		t.Fatal(err)
	}

	var metrics []struct {
		Workload string      `json:"workload"`
		Cycles   uint64      `json:"cycles"`
		Metrics  obs.Metrics `json:"metrics"`
	}
	if err := json.Unmarshal(metricsBuf.Bytes(), &metrics); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if len(metrics) != 1 || metrics[0].Workload != "_unit_tiny" || metrics[0].Cycles != recs[0].Cycles {
		t.Fatalf("metrics JSON content: %+v", metrics)
	}
	have := map[string]uint64{}
	for _, c := range metrics[0].Metrics.Counters {
		have[c.Name] = c.Value
	}
	for _, name := range requiredCounters {
		if _, ok := have[name]; !ok {
			t.Errorf("counter %q missing from export — subsystem not wired", name)
		}
	}
	if have["cache.accesses"] == 0 {
		t.Error("cache.accesses exported as zero for a completed run")
	}

	var traces []struct {
		Workload string        `json:"workload"`
		Trace    obs.TraceDump `json:"trace"`
	}
	if err := json.Unmarshal(traceBuf.Bytes(), &traces); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(traces) != 1 || len(traces[0].Trace.Events) == 0 {
		t.Fatalf("trace JSON empty: %+v", traces)
	}
	// Kinds must round-trip through their string form, and the window
	// snapshot emitted at run start must be present.
	sawWindow := false
	for _, ev := range traces[0].Trace.Events {
		if _, ok := obs.KindFromString(ev.Kind.String()); !ok {
			t.Errorf("event kind %v does not round-trip", ev.Kind)
		}
		if ev.Kind == obs.EvCacheWindow {
			sawWindow = true
		}
	}
	if !sawWindow {
		t.Error("no cache_window event in trace (ResetStats window close not traced)")
	}
}

// TestProgressSharedStateRace pins the documented ProgressFunc
// thread-safety contract under the race detector: callbacks are
// serialized by the engine's lock, so a progress func may write shared
// state without its own locking, and Engine.Wait is a sufficient sync
// point for reading that state afterwards.
func TestProgressSharedStateRace(t *testing.T) {
	const n = 32
	e := NewEngine(4)

	// Shared state written by the callback with no locking of its own.
	var (
		calls  int
		labels []string
		lastDo int
	)
	e.SetProgress(func(done, total int, label string) {
		calls++
		labels = append(labels, label)
		if done <= lastDo {
			t.Errorf("done not strictly increasing: %d after %d", done, lastDo)
		}
		lastDo = done
	})

	var mu sync.Mutex
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		i := i
		e.Submit("job", func() error {
			mu.Lock()
			seen[i] = true
			mu.Unlock()
			return nil
		})
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}

	// Post-Wait reads need no locks.
	if calls != n || len(labels) != n || lastDo != n {
		t.Errorf("progress saw %d calls, %d labels, last done %d; want %d", calls, len(labels), lastDo, n)
	}
	if len(seen) != n {
		t.Errorf("ran %d jobs, want %d", len(seen), n)
	}
}
