// Text pin for the two kind-ablation experiments: the full rendering of
// `-exp codelayout` and `-exp swprefetch` on db plus every metric they
// record, in testdata/opt_exp_db.json. Recorded when each experiment
// had its own driver, so the shared one (internal/bench/kindablation.go)
// must reproduce both byte for byte.
//
// Regenerate only after an intentional change to an experiment's text:
// go test -run '^TestOptExpText$' -golden-regen .
package hpmvm_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hpmvm/internal/bench"
)

// optExpEntry is one experiment's recorded rendering.
type optExpEntry struct {
	Output  string             `json:"output"`
	Metrics map[string]float64 `json:"metrics"`
}

func optExpPath() string { return filepath.Join("testdata", "opt_exp_db.json") }

func TestOptExpText(t *testing.T) {
	if len(goldenRaceSubset) > 0 {
		t.Skip("db is outside the race lane's workload subset")
	}
	got := map[string]optExpEntry{}
	for _, name := range []string{"codelayout", "swprefetch"} {
		run, err := bench.RunExperimentFull(name, bench.ExpOptions{Workloads: []string{"db"}, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = optExpEntry{Output: run.Output, Metrics: run.Metrics}
	}
	if *goldenRegen {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(optExpPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s", optExpPath())
		return
	}
	data, err := os.ReadFile(optExpPath())
	if err != nil {
		t.Fatalf("missing pin (go test -run '^TestOptExpText$' -golden-regen .): %v", err)
	}
	var want map[string]optExpEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt pin: %v", err)
	}
	for name, g := range got {
		w := want[name]
		if g.Output != w.Output {
			t.Errorf("-exp %s text diverges from the pin:\n got:\n%s\nwant:\n%s", name, g.Output, w.Output)
		}
		if !reflect.DeepEqual(g.Metrics, w.Metrics) {
			t.Errorf("-exp %s metrics diverge from the pin:\n got %v\nwant %v", name, g.Metrics, w.Metrics)
		}
	}
}
