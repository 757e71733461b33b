// Canonical-string pin: the text every Fingerprint and hpmvmd cache
// key hashes, recorded in testdata/canonical_pin.json
// for every configuration the repo builds — the experiment grids and
// their inline configurations, both kind-ablation descriptors, the
// golden corpus, the benchmark's simulated and probe runs, and the
// request shapes the serve tests and the smoke script send — each
// resolved against db's minimum heap and hot field. A refactor of
// bench.RunConfig, core.Options or any kind's config must leave every
// entry unchanged.
//
// A diff here re-keys every result cache entry and snapshot. The test
// reports it as the segments, split after ';' and '{', that entries
// lost and gained, one line per distinct change with the number of
// entries it applies to. Regenerate only in a change that re-keys on
// purpose; the regeneration logs the same summary, which should name
// only what that change meant to move:
// go test -run '^TestCanonicalStringsPinned$' -golden-regen -v .
package hpmvm_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hpmvm/internal/bench"
	"hpmvm/internal/coalloc"
	"hpmvm/internal/core"
	"hpmvm/internal/hw/cache"
)

// canonicalPinEntry is one configuration's identity string.
type canonicalPinEntry struct {
	Canonical string `json:"canonical"`
}

func canonicalPinPath() string { return filepath.Join("testdata", "canonical_pin.json") }

// canonicalPinConfigs names every configuration the repo builds. The
// experiments' and the benchmark's configurations are restated here:
// the experiments build theirs inline, and the benchmark is package
// main. Seeds are the CLIs' default, 1, unless the source sets another.
func canonicalPinConfigs() map[string]bench.RunConfig {
	cfgs := map[string]bench.RunConfig{}
	add := func(name string, cfg bench.RunConfig) {
		if _, dup := cfgs[name]; dup {
			panic("canonical pin: duplicate name " + name)
		}
		if cfg.Seed == 0 {
			cfg.Seed = 1
		}
		cfgs[name] = cfg
	}
	sampled := func(cfg bench.RunConfig) bench.RunConfig {
		sc := bench.CalibratedSampling("db")
		cfg.Sampling = &sc
		return cfg
	}

	// cmd/experiments: table2, fig2–fig8, the sampled validations,
	// ablations and the obs sweep.
	add("exp/base", bench.RunConfig{})
	for j, iv := range bench.Fig2Intervals {
		add("exp/fig2/"+bench.Fig2Labels[j], bench.RunConfig{Monitoring: true, Interval: iv})
	}
	add("exp/sampling/sampled", sampled(bench.RunConfig{}))
	for _, f := range bench.Fig5Factors {
		at := fmt.Sprintf("exp/heap/%gx/", f)
		add(at+"base", bench.RunConfig{HeapFactor: f})
		add(at+"coalloc", bench.RunConfig{HeapFactor: f, Coalloc: true})
		add(at+"auto", bench.RunConfig{HeapFactor: f, Monitoring: true})
		add(at+"gencopy", bench.RunConfig{HeapFactor: f, Collector: core.GenCopy})
		add(at+"sampled", sampled(bench.RunConfig{HeapFactor: f}))
	}
	for _, iv := range bench.Fig3Intervals {
		add(fmt.Sprintf("exp/fig3/iv=%d", iv), bench.RunConfig{Coalloc: true, Interval: iv})
	}
	add("exp/fig4/coalloc", bench.RunConfig{Coalloc: true})
	add("exp/fig7/monitor", bench.RunConfig{Monitoring: true, Interval: 2500})
	add("exp/fig7/coalloc", bench.RunConfig{Coalloc: true, Interval: 2500})
	add("exp/fig8/gap", bench.RunConfig{Coalloc: true, CoallocConfig: &coalloc.Config{GapAtCycle: bench.Fig8GapAtCycle}, Interval: 2500})
	nopf := cache.DefaultP4()
	nopf.PrefetchEnabled = false
	add("exp/ablations/coalloc-tlb", bench.RunConfig{Coalloc: true, Event: cache.EventDTLBMiss})
	add("exp/ablations/nopf-base", bench.RunConfig{CacheConfig: &nopf})
	add("exp/ablations/nopf-coalloc", bench.RunConfig{Coalloc: true, CacheConfig: &nopf})
	add("exp/ablations/opt1-base", bench.RunConfig{OptLevel: 1})
	add("exp/ablations/opt1-coalloc", bench.RunConfig{OptLevel: 1, Coalloc: true})
	add("exp/obs", bench.RunConfig{Coalloc: true, Observe: true})
	for _, a := range []bench.KindAblation{bench.CodeLayoutAblation, bench.SwPrefetchAblation} {
		add("exp/"+a.Kind+"/passive", a.Passive)
		add("exp/"+a.Kind+"/active", a.Active)
		add("exp/"+a.Kind+"/bad-decision", a.BadDecision)
	}

	// The golden corpus.
	for _, g := range goldenConfigs() {
		add("golden/"+g.Name, g.Cfg)
	}

	// benchmark/: simConfig's three workloads and the probes' cells.
	add("benchmark/sim-exact", bench.RunConfig{})
	add("benchmark/sim-monitored", bench.RunConfig{Coalloc: true, Interval: 250})
	add("benchmark/sim-sampled", sampled(bench.RunConfig{}))
	add("benchmark/probe-monitored", bench.RunConfig{Monitoring: true, Interval: 250})
	add("benchmark/probe-allkinds", bench.RunConfig{Coalloc: true, CodeLayout: true, SwPrefetch: true, Interval: 250})
	add("benchmark/probe-gencopy", bench.RunConfig{Collector: core.GenCopy})
	add("benchmark/probe-adaptive", bench.RunConfig{Adaptive: true})
	add("benchmark/probe-observe", bench.RunConfig{Observe: true})

	// Request shapes: the serve tests' bodies and scripts/servesmoke's.
	add("serve/exact", bench.RunConfig{Seed: 1})
	add("serve/monitored", bench.RunConfig{Seed: 2, Monitoring: true, Interval: 1000})
	add("serve/sampled", sampled(bench.RunConfig{Seed: 3}))
	add("serve/warm", bench.RunConfig{Seed: 4, Monitoring: true, Interval: 1000})
	add("serve/smoke-monitored", bench.RunConfig{Monitoring: true, Interval: 25_000})
	add("serve/smoke-coalloc", bench.RunConfig{Coalloc: true})
	add("serve/smoke-codelayout", bench.RunConfig{CodeLayout: true, Event: cache.EventL1IMiss})
	add("serve/smoke-swprefetch", bench.RunConfig{SwPrefetch: true})

	// The co-allocation tunings outside the experiments: hpmvm -gap and
	// the ranked candidate list.
	add("hpmvm/gap", bench.RunConfig{Coalloc: true, CoallocConfig: &coalloc.Config{Gap: 128}})
	add("coalloc/ranked", bench.RunConfig{Coalloc: true, CoallocConfig: &coalloc.Config{Ranked: true}})
	return cfgs
}

// TestCanonicalStringsPinned compares every configuration's canonical
// string against the recorded pin. With
// -golden-regen it rewrites the pin instead.
func TestCanonicalStringsPinned(t *testing.T) {
	b, err := bench.Lookup("db")
	if err != nil {
		t.Fatal(err)
	}
	db := b()
	got := map[string]canonicalPinEntry{}
	for name, cfg := range canonicalPinConfigs() {
		got[name] = canonicalPinEntry{Canonical: cfg.Resolve(db.MinHeap, db.HotFieldName).CanonicalString()}
	}
	var want map[string]canonicalPinEntry
	data, err := os.ReadFile(canonicalPinPath())
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if *goldenRegen {
		for _, line := range reKeys(want, got) {
			t.Log(line)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(canonicalPinPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s (%d configurations)", canonicalPinPath(), len(got))
		return
	}
	if err != nil {
		t.Fatalf("missing or corrupt pin (go test -run '^TestCanonicalStringsPinned$' -golden-regen .): %v", err)
	}
	for _, line := range reKeys(want, got) {
		t.Error(line)
	}
}

// reKeys describes how got differs from want: the entries only one of
// them has, then one line per distinct segment change with the number
// of entries it re-keys and their names.
func reKeys(want, got map[string]canonicalPinEntry) []string {
	var lines []string
	changed := map[string][]string{} // change -> entry names
	for name, g := range got {
		w, ok := want[name]
		switch {
		case !ok:
			lines = append(lines, fmt.Sprintf("%s has no pin entry — regenerate", name))
		case g != w:
			lost, gained := segmentDiff(w.Canonical, g.Canonical)
			change := fmt.Sprintf("lost %q, gained %q", lost, gained)
			changed[change] = append(changed[change], name)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			lines = append(lines, fmt.Sprintf("pin entry %s names no configuration — regenerate", name))
		}
	}
	for change, names := range changed {
		slices.Sort(names)
		lines = append(lines, fmt.Sprintf("%d entries re-keyed: %s: %s", len(names), change, strings.Join(names, ", ")))
	}
	slices.Sort(lines)
	return lines
}

// segments splits a canonical string after each ';' and '{'.
func segments(s string) []string {
	var segs []string
	for s != "" {
		i := strings.IndexAny(s, ";{") + 1
		if i == 0 {
			i = len(s)
		}
		segs = append(segs, s[:i])
		s = s[i:]
	}
	return segs
}

// segmentDiff returns, in order, the segments of before outside a
// longest common subsequence of the two strings' segments, and those of
// after.
func segmentDiff(before, after string) (lost, gained []string) {
	a, b := segments(before), segments(after)
	// lcs[i][j] is the length of a longest common subsequence of a[i:]
	// and b[j:].
	lcs := make([][]int, len(a)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i, j = i+1, j+1
		case lcs[i+1][j] >= lcs[i][j+1]:
			lost = append(lost, a[i])
			i++
		default:
			gained = append(gained, b[j])
			j++
		}
	}
	return append(lost, a[i:]...), append(gained, b[j:]...)
}
