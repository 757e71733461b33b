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
	"strings"
	"testing"

	"hpmvm/internal/bench"
	"hpmvm/internal/coalloc"
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
// take it back within one assessment window — the revert is the FIRST
// verdict on the injected decision, never preceded by a "kept". This is
// the Figure 8 methodology (db, manual mid-run intervention) applied
// through the generic manager to both kinds.
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
		ks := kindRow(t, res.Opt, opt.KindCoalloc)
		if ks.Reverts < 1 {
			t.Errorf("injected gap placement never reverted: %+v", ks)
		}
		// The revert must be the first verdict on the intervened field:
		// between the forced gap and the switch back there is no event
		// keeping the gapped placement.
		events := sys.Optimization(opt.KindCoalloc).Log()
		iIntervene, iRevert := -1, -1
		for i, e := range events {
			if iIntervene < 0 && strings.Contains(e, "manual intervention") {
				iIntervene = i
			}
			if iRevert < 0 && strings.Contains(e, "revert") {
				iRevert = i
			}
		}
		if iIntervene < 0 || iRevert < 0 || iRevert < iIntervene {
			t.Fatalf("expected intervention then revert; events:\n%s", strings.Join(events, "\n"))
		}
		for _, e := range events[iIntervene:iRevert] {
			if strings.Contains(e, "kept") {
				t.Errorf("gapped placement was kept before the revert; events:\n%s", strings.Join(events, "\n"))
			}
		}
	})

	// Both scenarios are the BadDecision runs of internal/bench's
	// ablation descriptors, shared with TestOptKindsPinned
	// (opt_pin_test.go) so each executes once.
	t.Run("swprefetch", func(t *testing.T) {
		checkFirstVerdictReverts(t, "db/swprefetch-badinject", "polluting injection", "injection #")
	})
	t.Run("codelayout", func(t *testing.T) {
		checkFirstVerdictReverts(t, "db/codelayout-badpad", "conflict layout", "layout #")
	})
}

// checkFirstVerdictReverts requires the pinned cell's injected decision
// — the first log line containing badMarker — to be reverted, and the
// revert to be its first assessment: no "kept" verdict for that epoch
// (the number after epochMarker) between apply and revert.
func checkFirstVerdictReverts(t *testing.T, cell, badMarker, epochMarker string) {
	t.Helper()
	run := runOptPinCell(t, cell)
	ks, log := run.entry.Opt, run.log
	if ks.Reverts < 1 {
		t.Errorf("injected %s never reverted: %+v\nlog:\n%s", badMarker, ks, strings.Join(log, "\n"))
	}
	iApply, iRevert := -1, -1
	var epoch string
	for i, l := range log {
		if iApply < 0 && strings.Contains(l, badMarker) {
			iApply = i
			if j := strings.Index(l, epochMarker); j >= 0 {
				epoch = strings.Fields(l[j+len(epochMarker):])[0]
				epoch = strings.TrimSuffix(epoch, ":")
			}
		}
		if iApply >= 0 && iRevert < 0 && strings.Contains(l, "reverted") &&
			strings.Contains(l, epochMarker+epoch+" ") {
			iRevert = i
		}
	}
	if iApply < 0 || iRevert < 0 {
		t.Fatalf("expected %s apply then revert; log:\n%s", badMarker, strings.Join(log, "\n"))
	}
	for _, l := range log[iApply:iRevert] {
		if strings.Contains(l, epochMarker+epoch+" kept") {
			t.Errorf("%s kept before the revert; log:\n%s", badMarker, strings.Join(log, "\n"))
		}
	}
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
