// Keystone tests for the generalized online-optimization pipeline
// (internal/opt): managed co-allocation reproduces the golden corpus
// bit-for-bit, and the manager's assessment loop takes back
// injected regressing decisions for both managed kinds. `make
// verify-opt` runs exactly these two; the race CI target covers them
// through the root package.
package hpmvm_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"hpmvm/internal/bench"
	"hpmvm/internal/coalloc"
	"hpmvm/internal/obs"
	"hpmvm/internal/opt"
)

// TestOptCoallocByteIdentical pins framework-managed co-allocation
// against the recorded golden corpus: the genms-coalloc configuration
// must reproduce bit-for-bit — its obs export included, where the
// manager counts and traces the kind like every other — while the
// result proves the run actually went through the framework (a per-kind
// counter row is present). Any divergence in charged cycles, sample
// placement, GC decisions or snapshot encoding fails here.
func TestOptCoallocByteIdentical(t *testing.T) {
	const cfgName = "genms-coalloc"
	for _, workload := range goldenWorkloads() {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			b, err := bench.Lookup(workload)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(goldenPath(workload))
			if err != nil {
				t.Fatalf("missing golden (run scripts/regen_goldens.sh): %v", err)
			}
			var want goldenFile
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("corrupt golden: %v", err)
			}
			wantE, ok := want.Configs[cfgName]
			if !ok {
				t.Fatalf("golden lacks the %s config — regenerate", cfgName)
			}

			var cfg bench.RunConfig
			for _, gc := range goldenConfigs() {
				if gc.Name == cfgName {
					cfg = gc.Cfg
				}
			}
			res, _, err := bench.Run(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenEntry{
				Cycles:       res.Cycles,
				Instret:      res.Instret,
				ResultSHA256: resultFingerprint(res),
				ObsSHA256:    obsFingerprint(t, res),
			}
			snap, err := bench.RunPrefix(context.Background(), b, cfg, want.PauseCycles)
			if err != nil {
				t.Fatalf("prefix snapshot: %v", err)
			}
			got.SnapSHA256 = snapshotFingerprint(t, snap)
			got.SnapshotBytes = len(snap)
			if got != wantE {
				t.Errorf("framework-managed coalloc diverges from the golden:\n got %+v\nwant %+v", got, wantE)
			}

			// The identical bytes must have been produced *through* the
			// framework: the manager reports exactly the coalloc kind.
			if len(res.Opt) != 1 || res.Opt[0].Kind != opt.KindCoalloc {
				t.Errorf("run did not report the managed coalloc kind: %+v", res.Opt)
			}
		})
	}
}

// TestOptRevertBadDecision injects a deliberately regressing decision
// into each managed optimization and requires the assessment loop to
// take it back within one assessment window: the first verdict on the
// injected decision is a revert, never a keep. This is the Figure 8
// methodology (db, manual mid-run intervention) applied through the
// generic manager to every kind.
func TestOptRevertBadDecision(t *testing.T) {
	t.Run("coalloc", func(t *testing.T) {
		b, err := bench.Lookup("db")
		if err != nil {
			t.Fatal(err)
		}
		res, sys, err := bench.Run(b, bench.RunConfig{
			Coalloc: true, CoallocConfig: &coalloc.Config{GapAtCycle: bench.Fig8GapAtCycle}, Interval: 2500, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkFirstVerdictReverts(t, kindRow(t, res.Opt, opt.KindCoalloc), sys.OptManager.Records())
	})

	// Both scenarios are the BadDecision runs of internal/bench's
	// ablation descriptors, shared with TestOptKindsPinned
	// (opt_pin_test.go) so each executes once.
	t.Run("swprefetch", func(t *testing.T) {
		run := runOptPinCell(t, "db/swprefetch-badinject")
		checkFirstVerdictReverts(t, run.entry.Opt, run.records)
	})
	t.Run("codelayout", func(t *testing.T) {
		run := runOptPinCell(t, "db/codelayout-badpad")
		checkFirstVerdictReverts(t, run.entry.Opt, run.records)
	})
}

// checkFirstVerdictReverts requires a revert in ks and the first
// injected decision — the first apply record with code
// obs.DecisionIntervene — to be closed by a revert: the first later
// verdict record of the same kind and Target is VerdictBad.
func checkFirstVerdictReverts(t *testing.T, ks opt.KindStats, records []opt.Record) {
	t.Helper()
	if ks.Reverts < 1 {
		t.Errorf("injected decision never reverted: %+v\nlog:\n%s", ks, render(records))
	}
	for i, r := range records {
		if r.Verdict != opt.VerdictOpen || r.Code != obs.DecisionIntervene {
			continue
		}
		for _, v := range records[i+1:] {
			if v.Kind == r.Kind && v.Target == r.Target && v.Verdict != opt.VerdictOpen {
				if v.Verdict != opt.VerdictBad {
					t.Errorf("first verdict on %q is not a revert: %q\nlog:\n%s", r, v, render(records))
				}
				return
			}
		}
		t.Fatalf("injected decision %q never judged; log:\n%s", r, render(records))
	}
	t.Fatalf("no injected decision recorded; log:\n%s", render(records))
}

// TestSwPrefetchAblation pins the prefetch-injection acceptance bar
// under the default cache geometry: across the workload suite the
// active runs must never regress against the passive monitored
// baseline (identical detector, no injections — workloads where the
// optimizer declines to inject are byte-identical by construction),
// and on the full suite at least 3 workloads must show a measured
// cycle reduction. The race lane trims to the golden subset (where no
// injection fires) and checks only the no-regression half.
func TestSwPrefetchAblation(t *testing.T) {
	o := bench.ExpOptions{Seed: 1}
	trimmed := len(goldenRaceSubset) > 0
	if trimmed {
		o.Workloads = goldenRaceSubset
	}
	rows, err := bench.SwPrefetchData(o)
	if err != nil {
		t.Fatal(err)
	}
	improved := 0
	for _, r := range rows {
		if r.ActiveCycles > r.PassiveCycles {
			t.Errorf("%s: prefetch injection regressed: %d cycles active vs %d passive (%d issued, %d epochs, %d reverts)",
				r.Program, r.ActiveCycles, r.PassiveCycles, r.SwPrefetches, r.Decisions, r.Reverts)
		}
		if r.ActiveCycles < r.PassiveCycles {
			improved++
			if r.SwPrefetches == 0 {
				t.Errorf("%s: cycles improved with zero software prefetches issued — the delta is not attributable to injection", r.Program)
			}
		}
	}
	if !trimmed && improved < 3 {
		t.Errorf("prefetch injection improved only %d workloads, want >= 3:\n%+v", improved, rows)
	}
}

// kindRow extracts one kind's counter row from a result's Opt stats.
func kindRow(t *testing.T, rows []opt.KindStats, kind string) opt.KindStats {
	t.Helper()
	for _, k := range rows {
		if k.Kind == kind {
			return k
		}
	}
	t.Fatalf("no %s row in %+v", kind, rows)
	return opt.KindStats{}
}
