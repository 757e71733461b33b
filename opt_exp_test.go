// Text pin for every experiment cmd/experiments runs: the full rendering
// of each name in bench.ExperimentNames plus every metric it records, in
// testdata/exp_text.json. The workload-list experiments run on compress
// at one repetition; the db-only ones ignore the list. codelayout and
// swprefetch keep their db entries, recorded when each had its own
// driver. Lines and metrics that report host time are masked, so the
// pin holds exactly what the simulation decides.
//
// Regenerate only after an intentional change to an experiment's text:
// go test -run '^TestOptExpText$' -golden-regen .
package hpmvm_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"hpmvm/internal/bench"
)

// optExpEntry is one experiment's recorded rendering.
type optExpEntry struct {
	Output  string             `json:"output"`
	Metrics map[string]float64 `json:"metrics"`
}

func optExpPath() string { return filepath.Join("testdata", "exp_text.json") }

// optExpOptions is the configuration each experiment is pinned under.
func optExpOptions(name string) bench.ExpOptions {
	if name == "codelayout" || name == "swprefetch" {
		return bench.ExpOptions{Workloads: []string{"db"}, Seed: 1}
	}
	return bench.ExpOptions{Workloads: []string{"compress"}, Reps: 1, Seed: 1}
}

// hostTimeLine matches the rendered lines that report wall clock.
var hostTimeLine = regexp.MustCompile(`(?m)^(exact grid ).*$`)

// pinnedEntry strips what varies with the host from one run.
func pinnedEntry(run bench.ExpRun) optExpEntry {
	e := optExpEntry{Output: hostTimeLine.ReplaceAllString(run.Output, "$1<host time>")}
	for k, v := range run.Metrics {
		if strings.Contains(k, "speedup") {
			continue
		}
		if e.Metrics == nil {
			e.Metrics = map[string]float64{}
		}
		e.Metrics[k] = v
	}
	return e
}

func TestOptExpText(t *testing.T) {
	if len(goldenRaceSubset) > 0 {
		t.Skip("the pin runs workloads outside the race lane's subset")
	}
	got := map[string]optExpEntry{}
	for _, name := range bench.ExperimentNames {
		run, err := bench.RunExperiment(name, optExpOptions(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = pinnedEntry(run)
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
		w, ok := want[name]
		if !ok {
			t.Errorf("-exp %s has no pin entry", name)
			continue
		}
		if g.Output != w.Output {
			t.Errorf("-exp %s text diverges from the pin:\n got:\n%s\nwant:\n%s", name, g.Output, w.Output)
		}
		if !reflect.DeepEqual(g.Metrics, w.Metrics) {
			t.Errorf("-exp %s metrics diverge from the pin:\n got %v\nwant %v", name, g.Metrics, w.Metrics)
		}
	}
}
