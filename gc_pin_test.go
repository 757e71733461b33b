// Behaviour pin for the collectors under heap pressure. The golden
// corpus runs every workload at 4× its minimum heap, where no workload
// performs a major collection, so MajorGC, MinorGC's escalate-to-major
// tail and the large-object collect-then-retry are pinned end to end by
// nothing there. These cells run at 1× and 1.5× — up to five major
// collections each — and record what both collectors did in
// testdata/goldens/gc_small_heap.json. A refactor of internal/gc must
// reproduce every cell unchanged.
//
// Regenerate only after an intentional change to collector behaviour:
// go test -run '^TestCollectorsSmallHeapPinned$' -golden-regen .
package hpmvm_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hpmvm/internal/bench"
	"hpmvm/internal/core"
)

// gcPinEntry is the recorded observation of one cell.
type gcPinEntry struct {
	Cycles          uint64  `json:"cycles"`
	Instret         uint64  `json:"instret"`
	MinorGCs        uint64  `json:"minor_gcs"`
	MajorGCs        uint64  `json:"major_gcs"`
	GCCycles        uint64  `json:"gc_cycles"`
	PromotedObjects uint64  `json:"promoted_objects"`
	PromotedBytes   uint64  `json:"promoted_bytes"`
	CoallocPairs    uint64  `json:"coalloc_pairs"`
	Fragmentation   float64 `json:"fragmentation"`
	Results         []int64 `json:"results"`
}

// gcPinCell is one pinned (workload, collector, heap factor) point.
type gcPinCell struct {
	Name     string
	Workload string
	Cfg      bench.RunConfig
}

func gcPinCells() []gcPinCell {
	var cells []gcPinCell
	for _, w := range []string{"db", "jack", "pseudojbb"} {
		for _, c := range []struct {
			name string
			cfg  bench.RunConfig
		}{
			{"genms", bench.RunConfig{Collector: core.GenMS}},
			{"genms-coalloc", bench.RunConfig{Collector: core.GenMS, Coalloc: true, Interval: 500}},
			{"gencopy", bench.RunConfig{Collector: core.GenCopy}},
		} {
			for _, f := range []float64{1, 1.5} {
				cfg := c.cfg
				cfg.HeapFactor, cfg.Seed = f, 1
				cells = append(cells, gcPinCell{Name: fmt.Sprintf("%s/%s/%gx", w, c.name, f), Workload: w, Cfg: cfg})
			}
		}
	}
	return cells
}

func runGCPinCell(t *testing.T, c gcPinCell) gcPinEntry {
	t.Helper()
	b, err := bench.Lookup(c.Workload)
	if err != nil {
		t.Fatal(err)
	}
	res, sys, err := bench.Run(b, c.Cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	e := gcPinEntry{
		Cycles:        res.Cycles,
		Instret:       res.Instret,
		MinorGCs:      res.MinorGCs,
		MajorGCs:      res.MajorGCs,
		GCCycles:      res.GCCycles,
		CoallocPairs:  res.CoallocPairs,
		Fragmentation: res.Fragmentation,
		Results:       res.Results,
	}
	if sys.GenMS != nil {
		st := sys.GenMS.Stats()
		e.PromotedObjects, e.PromotedBytes = st.PromotedObjects, st.PromotedBytes
	}
	if sys.GenCopy != nil {
		st := sys.GenCopy.Stats()
		e.PromotedObjects, e.PromotedBytes = st.PromotedObjects, st.PromotedBytes
	}
	return e
}

func gcPinPath() string { return filepath.Join("testdata", "goldens", "gc_small_heap.json") }

// TestCollectorsSmallHeapPinned compares every cell against the
// recorded pin. With -golden-regen it rewrites the pin instead.
func TestCollectorsSmallHeapPinned(t *testing.T) {
	if len(goldenRaceSubset) > 0 {
		t.Skip("18 heap-pressured runs; the race lane keeps to the golden subset")
	}
	if *goldenRegen {
		got := map[string]gcPinEntry{}
		for _, c := range gcPinCells() {
			got[c.Name] = runGCPinCell(t, c)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gcPinPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s (%d cells)", gcPinPath(), len(got))
		return
	}
	data, err := os.ReadFile(gcPinPath())
	if err != nil {
		t.Fatalf("missing pin (go test -run '^TestCollectorsSmallHeapPinned$' -golden-regen .): %v", err)
	}
	var want map[string]gcPinEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt pin: %v", err)
	}
	majors := uint64(0)
	for _, c := range gcPinCells() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			wantE, ok := want[c.Name]
			if !ok {
				t.Fatalf("pin lacks cell %q — regenerate", c.Name)
			}
			got := runGCPinCell(t, c)
			majors += got.MajorGCs
			if !reflect.DeepEqual(got, wantE) {
				t.Errorf("collector behaviour diverges from the pin:\n got %+v\nwant %+v", got, wantE)
			}
		})
	}
	if majors == 0 {
		t.Error("no cell ran a major collection — the pin no longer covers MajorGC")
	}
}
