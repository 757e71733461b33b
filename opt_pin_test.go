// Behaviour pin for the two managed kinds the golden corpus never
// enables: what the code-layout and prefetch-injection optimizations
// decide — and what those decisions do to the simulation — recorded in
// testdata/goldens/opt_kinds.json. A refactor of internal/opt or of the
// kind plumbing in internal/core must reproduce every cell unchanged.
//
// Regenerate only after an intentional change to a kind's decisions:
// go test -run '^TestOptKindsPinned$' -golden-regen .
package hpmvm_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hpmvm/internal/bench"
	"hpmvm/internal/core"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/opt"
)

// optPinCell is one pinned (workload, configuration) point.
type optPinCell struct {
	Name     string
	Workload string
	Kind     string
	Cfg      bench.RunConfig
	// Shared marks the cells TestOptRevertBadDecision also consumes;
	// the race lane pins only those (they run there anyway).
	Shared bool
}

// optPinCells takes its configurations from internal/bench's ablation
// descriptors: each kind's active run and its injected-bad-decision
// scenario, at seed 1.
func optPinCells() []optPinCell {
	cell := func(name, workload, kind string, cfg bench.RunConfig, shared bool) optPinCell {
		cfg.Seed = 1
		return optPinCell{Name: name, Workload: workload, Kind: kind, Cfg: cfg, Shared: shared}
	}
	cl, sp := bench.CodeLayoutAblation, bench.SwPrefetchAblation
	return []optPinCell{
		cell("db/codelayout-active", "db", cl.Kind, cl.Active, false),
		cell("db/codelayout-badpad", "db", cl.Kind, cl.BadDecision, true),
		cell("pseudojbb/swprefetch-active", "pseudojbb", sp.Kind, sp.Active, false),
		cell("db/swprefetch-badinject", "db", sp.Kind, sp.BadDecision, true),
	}
}

// optPinEntry is the recorded observation of one cell.
type optPinEntry struct {
	Cycles         uint64        `json:"cycles"`
	Instret        uint64        `json:"instret"`
	ResultSHA256   string        `json:"result_sha256"`
	ICache         cache.IStats  `json:"icache"`
	SwPrefetches   uint64        `json:"sw_prefetches"`
	SwPrefetchHits uint64        `json:"sw_prefetch_hits"`
	Opt            opt.KindStats `json:"opt"`
	LogLines       int           `json:"log_lines"`
	LogSHA256      string        `json:"log_sha256"`
}

// optPinRun is one executed cell: the recorded entry plus the decision
// log itself, which TestOptRevertBadDecision inspects line by line.
type optPinRun struct {
	entry optPinEntry
	log   []string
	err   error
}

var optPinRuns sync.Map // cell name -> func() *optPinRun (sync.OnceValue)

// runOptPinCell executes the named cell once per test binary; every
// caller shares the run.
func runOptPinCell(t *testing.T, name string) *optPinRun {
	t.Helper()
	for _, c := range optPinCells() {
		if c.Name != name {
			continue
		}
		once, _ := optPinRuns.LoadOrStore(name, sync.OnceValue(func() *optPinRun { return executeOptPinCell(c) }))
		r := once.(func() *optPinRun)()
		if r.err != nil {
			t.Fatalf("%s: %v", name, r.err)
		}
		return r
	}
	t.Fatalf("no pinned cell %q", name)
	return nil
}

func executeOptPinCell(c optPinCell) *optPinRun {
	b, err := bench.Lookup(c.Workload)
	if err != nil {
		return &optPinRun{err: err}
	}
	res, sys, err := bench.Run(b, c.Cfg)
	if err != nil {
		return &optPinRun{err: err}
	}
	log := managedLog(sys, c.Kind)
	sum := sha256.Sum256([]byte(strings.Join(log, "\n")))
	var ks opt.KindStats
	for _, k := range res.Opt {
		if k.Kind == c.Kind {
			ks = k
		}
	}
	return &optPinRun{
		log: log,
		entry: optPinEntry{
			Cycles:         res.Cycles,
			Instret:        res.Instret,
			ResultSHA256:   resultFingerprint(res),
			ICache:         res.ICache,
			SwPrefetches:   res.Cache.SwPrefetches,
			SwPrefetchHits: res.Cache.SwPrefetchHits,
			Opt:            ks,
			LogLines:       len(log),
			LogSHA256:      hex.EncodeToString(sum[:]),
		},
	}
}

// managedLog returns the decision log of the managed optimization of
// the given kind.
func managedLog(sys *core.System, kind string) []string {
	if sys.OptManager == nil {
		return nil
	}
	for _, op := range sys.OptManager.Optimizations() {
		if op.Kind() == kind {
			if l, ok := op.(interface{ Log() []string }); ok {
				return l.Log()
			}
		}
	}
	return nil
}

func optPinPath() string { return filepath.Join("testdata", "goldens", "opt_kinds.json") }

// TestOptKindsPinned compares every cell against the recorded pin. With
// -golden-regen it rewrites the pin instead.
func TestOptKindsPinned(t *testing.T) {
	if *goldenRegen {
		got := map[string]optPinEntry{}
		for _, c := range optPinCells() {
			got[c.Name] = runOptPinCell(t, c.Name).entry
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(optPinPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s (%d cells)", optPinPath(), len(got))
		return
	}
	data, err := os.ReadFile(optPinPath())
	if err != nil {
		t.Fatalf("missing pin (go test -run '^TestOptKindsPinned$' -golden-regen .): %v", err)
	}
	var want map[string]optPinEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt pin: %v", err)
	}
	trimmed := len(goldenRaceSubset) > 0
	for _, c := range optPinCells() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if trimmed && !c.Shared {
				t.Skip("race lane pins only the cells TestOptRevertBadDecision runs")
			}
			wantE, ok := want[c.Name]
			if !ok {
				t.Fatalf("pin lacks cell %q — regenerate", c.Name)
			}
			r := runOptPinCell(t, c.Name)
			if r.entry.Opt.Decisions == 0 {
				t.Errorf("cell made no decision — it pins nothing about the kind")
			}
			if !reflect.DeepEqual(r.entry, wantE) {
				t.Errorf("behaviour diverges from the pin:\n got %+v\nwant %+v\nlog:\n%s",
					r.entry, wantE, strings.Join(r.log, "\n"))
			}
		})
	}
}
