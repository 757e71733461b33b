// Golden-equivalence corpus: pins the simulator's observable output —
// final metrics, obs exports, and whole-system snapshot hashes —
// against recorded goldens for every registered workload under both
// collectors, with and without monitoring and co-allocation.
//
// snapshot_sha256 is the SHA-256 of the encoded snapshot with its
// identity string (Fingerprint) blanked: it pins
// machine state, not how core.Options is spelled, so re-keying the
// canonical form cannot move the corpus.
//
// The corpus exists so hot-path rewrites (fast-path interpreter, MRU
// cache filter, page-pointer memoization, event-horizon run loop) can
// prove byte-identical behavior: any change to charged cycles, miss
// counts, PEBS sample placement, LRU stamp order, or snapshot encoding
// shows up as a fingerprint mismatch here.
//
// Regenerate after an intentional simulation-semantics change with
// scripts/regen_goldens.sh (wraps `go test -run TestGoldenEquivalence
// -golden-regen`). Never regenerate to make a perf-only change pass.
package hpmvm_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"hpmvm/internal/bench"
	_ "hpmvm/internal/bench/workloads"
	"hpmvm/internal/core"
)

var goldenRegen = flag.Bool("golden-regen", false, "rewrite testdata/goldens from the current simulator instead of comparing")

// goldenPauseCycles is where the snapshot fingerprint is taken: early
// enough that every workload is still running (the shortest, fop,
// retires ~7.9M cycles), late enough that caches, heap and monitor
// state are warm and any hot-path divergence has had room to surface.
const goldenPauseCycles = 2_000_000

// goldenConfig is one point of the per-workload configuration matrix.
type goldenConfig struct {
	Name string
	Cfg  bench.RunConfig
}

// goldenConfigs spans {GenMS, GenCopy} × monitoring × co-allocation.
// Observe is on everywhere (it is passive, and pins the obs export);
// the monitored points use a fixed interval so the PEBS RNG sequence
// is part of the pin.
func goldenConfigs() []goldenConfig {
	return []goldenConfig{
		{"genms", bench.RunConfig{Collector: core.GenMS, Seed: 1, Observe: true}},
		{"genms-mon", bench.RunConfig{Collector: core.GenMS, Monitoring: true, Interval: 500, Seed: 1, Observe: true}},
		{"genms-coalloc", bench.RunConfig{Collector: core.GenMS, Coalloc: true, Interval: 500, Seed: 1, Observe: true}},
		{"gencopy", bench.RunConfig{Collector: core.GenCopy, Seed: 1, Observe: true}},
		{"gencopy-mon", bench.RunConfig{Collector: core.GenCopy, Monitoring: true, Interval: 500, Seed: 1, Observe: true}},
	}
}

// goldenEntry is the recorded fingerprint for one (workload, config).
// Cycles and Instret are stored raw for debuggability; the hashes pin
// everything else.
type goldenEntry struct {
	Cycles        uint64 `json:"cycles"`
	Instret       uint64 `json:"instret"`
	ResultSHA256  string `json:"result_sha256"`   // canonical rendering of bench.Result
	ObsSHA256     string `json:"obs_sha256"`      // obs.Metrics JSON export
	SnapSHA256    string `json:"snapshot_sha256"` // snapshot at goldenPauseCycles, identity strings blanked
	SnapshotBytes int    `json:"snapshot_bytes"`
}

// goldenFile is one workload's recorded corpus.
type goldenFile struct {
	Workload    string                 `json:"workload"`
	PauseCycles uint64                 `json:"pause_cycles"`
	Configs     map[string]goldenEntry `json:"configs"`
}

func goldenPath(workload string) string {
	return filepath.Join("testdata", "goldens", workload+".json")
}

// resultFingerprint renders every simulated metric of a Result in a
// fixed order and hashes it. Config and Obs are deliberately excluded:
// Config is an input, and the obs export is hashed separately.
func resultFingerprint(r *bench.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "program=%s heap=%d\n", r.Program, r.HeapBytes)
	fmt.Fprintf(h, "cycles=%d instret=%d\n", r.Cycles, r.Instret)
	// The cache line spells out the pre-swprefetch field set in %+v
	// byte format: the corpus was recorded against that rendering, and
	// the golden configurations never enable software prefetching, so
	// the sw counters are asserted zero rather than silently hashed.
	c := r.Cache
	if c.SwPrefetches != 0 || c.SwPrefetchHits != 0 {
		fmt.Fprintf(h, "swprefetch=%d/%d\n", c.SwPrefetches, c.SwPrefetchHits)
	}
	fmt.Fprintf(h, "cache={Accesses:%d Loads:%d Stores:%d L1Misses:%d L2Misses:%d TLBMisses:%d Writebacks:%d Prefetches:%d PrefetchHits:%d Cycles:%d}\n",
		c.Accesses, c.Loads, c.Stores, c.L1Misses, c.L2Misses, c.TLBMisses,
		c.Writebacks, c.Prefetches, c.PrefetchHits, c.Cycles)
	fmt.Fprintf(h, "gc minor=%d major=%d pairs=%d gccycles=%d frag=%.9f\n",
		r.MinorGCs, r.MajorGCs, r.CoallocPairs, r.GCCycles, r.Fragmentation)
	fmt.Fprintf(h, "monitor=%+v samples=%d\n", r.MonitorStats, r.SamplesTaken)
	fmt.Fprintf(h, "space=%+v\n", r.Space)
	fmt.Fprintf(h, "results=%v\n", r.Results)
	return hex.EncodeToString(h.Sum(nil))
}

func obsFingerprint(t *testing.T, r *bench.Result) string {
	t.Helper()
	if r.Obs == nil {
		t.Fatal("golden run missing obs snapshot (Observe not plumbed?)")
	}
	h := sha256.New()
	if err := r.Obs.WriteJSON(h); err != nil {
		t.Fatalf("obs export: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// snapshotFingerprint hashes an encoded snapshot with Fingerprint
// blanked: it is a digest of how core.Options is spelled, not machine
// state, and TestSnapshotMismatchSentinel pins that restore enforces
// it.
func snapshotFingerprint(t *testing.T, encoded []byte) string {
	t.Helper()
	sn, err := core.DecodeSnapshot(encoded)
	if err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	sn.Fingerprint = ""
	sum := sha256.Sum256(core.EncodeSnapshot(sn))
	return hex.EncodeToString(sum[:])
}

// captureEntry executes one (workload, config) point: a full cold run
// for the final metrics and obs export, plus a short prefix run whose
// encoded whole-system snapshot pins the exact intermediate hardware
// state (tag arrays, LRU stamps, page contents, PEBS buffer, RNG).
func captureEntry(t *testing.T, b bench.Builder, gc goldenConfig) goldenEntry {
	t.Helper()
	res, _, err := bench.Run(b, gc.Cfg)
	if err != nil {
		t.Fatalf("%s: run: %v", gc.Name, err)
	}
	snap, err := bench.RunPrefix(context.Background(), b, gc.Cfg, goldenPauseCycles)
	if err != nil {
		t.Fatalf("%s: prefix snapshot: %v", gc.Name, err)
	}
	return goldenEntry{
		Cycles:        res.Cycles,
		Instret:       res.Instret,
		ResultSHA256:  resultFingerprint(res),
		ObsSHA256:     obsFingerprint(t, res),
		SnapSHA256:    snapshotFingerprint(t, snap),
		SnapshotBytes: len(snap),
	}
}

// goldenWorkloads returns the workload set for this build: everything,
// unless the race-instrumented build trims it (see golden_race_test.go).
func goldenWorkloads() []string {
	if len(goldenRaceSubset) > 0 {
		return goldenRaceSubset
	}
	return bench.Names()
}

// TestGoldenEquivalence compares the current simulator against the
// recorded corpus — the keystone gate for hot-path rewrites. With
// -golden-regen it rewrites the corpus instead.
func TestGoldenEquivalence(t *testing.T) {
	for _, workload := range goldenWorkloads() {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			b, err := bench.Lookup(workload)
			if err != nil {
				t.Fatal(err)
			}
			if *goldenRegen {
				regenGolden(t, workload, b)
				return
			}
			data, err := os.ReadFile(goldenPath(workload))
			if err != nil {
				t.Fatalf("missing golden (run scripts/regen_goldens.sh): %v", err)
			}
			var want goldenFile
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("corrupt golden: %v", err)
			}
			if want.PauseCycles != goldenPauseCycles {
				t.Fatalf("golden recorded at pause %d, test uses %d — regenerate", want.PauseCycles, goldenPauseCycles)
			}
			for _, gc := range goldenConfigs() {
				gc := gc
				t.Run(gc.Name, func(t *testing.T) {
					wantE, ok := want.Configs[gc.Name]
					if !ok {
						t.Fatalf("golden missing config %q — regenerate", gc.Name)
					}
					got := captureEntry(t, b, gc)
					if got != wantE {
						t.Errorf("fingerprint mismatch:\n got %+v\nwant %+v", got, wantE)
					}
				})
			}
		})
	}
}

func regenGolden(t *testing.T, workload string, b bench.Builder) {
	t.Helper()
	gf := goldenFile{
		Workload:    workload,
		PauseCycles: goldenPauseCycles,
		Configs:     map[string]goldenEntry{},
	}
	for _, gc := range goldenConfigs() {
		gf.Configs[gc.Name] = captureEntry(t, b, gc)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(workload)), 0o755); err != nil {
		t.Fatal(err)
	}
	// Marshal with sorted config names (map keys marshal sorted) so
	// regeneration diffs are minimal.
	data, err := json.MarshalIndent(gf, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(workload), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(gf.Configs))
	for n := range gf.Configs {
		names = append(names, n)
	}
	sort.Strings(names)
	t.Logf("recorded %s (%d configs: %v)", goldenPath(workload), len(names), names)
}
