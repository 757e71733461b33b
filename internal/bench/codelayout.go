package bench

import (
	"fmt"
	"strings"

	"hpmvm/internal/hw/cache"
	"hpmvm/internal/opt"
)

// This file implements the code-layout experiment: the second managed
// optimization (hot/cold code layout, internal/opt) evaluated the same
// way the paper evaluates co-allocation — a passive monitored baseline
// against the active optimization, plus a deliberately poor decision
// the feedback loop must detect and revert (the Figure-8 methodology
// applied to code space).

// CodeLayoutICache is the instruction-cache geometry the experiment
// opts into: 2 KB, 2-way. The boot-time code layout of every workload
// overflows it, so relocating the hot methods into a contiguous packed
// region has a visible effect; the default 8 KB geometry is large
// enough that several workloads fit entirely and the experiment would
// measure nothing.
const (
	CodeLayoutICacheSize  = 2 * 1024
	CodeLayoutICacheAssoc = 2
)

// codeLayoutCfg returns the experiment's optimization config; passive
// runs observe the same instruction cache without relocating, so the
// two runs differ only in the layout decisions.
func codeLayoutCfg(passive bool) *opt.CodeLayoutConfig {
	return &opt.CodeLayoutConfig{
		ICacheSize:  CodeLayoutICacheSize,
		ICacheAssoc: CodeLayoutICacheAssoc,
		Passive:     passive,
	}
}

// CodeLayoutRow is one program's passive-vs-active comparison.
type CodeLayoutRow struct {
	Program     string
	PassiveRate float64 // L1I miss rate, monitored but never relocated
	ActiveRate  float64 // L1I miss rate with hot/cold layout active
	Improvement float64 // fraction of the passive miss rate removed
	Decisions   uint64  // layouts the active run applied (includes conflict layouts)
	Reverts     uint64  // decisions the assessment loop took back
}

// optKindStats extracts one kind's counter row from a Result.
func optKindStats(res *Result, kind string) opt.KindStats {
	for _, k := range res.Opt {
		if k.Kind == kind {
			return k
		}
	}
	return opt.KindStats{Kind: kind}
}

// CodeLayoutData measures the L1I miss rate with the code-layout
// optimization active against a passive monitored baseline (same
// instruction cache, no relocation) for every workload. Both runs of
// every workload execute in parallel on the engine.
func CodeLayoutData(o ExpOptions) ([]CodeLayoutRow, error) {
	e := o.engine()
	names, builders, err := o.builders()
	if err != nil {
		return nil, err
	}
	type cell struct{ passive, active *RunHandle }
	cells := make([]cell, len(names))
	for i, name := range names {
		// Both runs sample L1I misses: hot-by-instruction-miss methods are
		// the set whose placement the layout can actually improve (data
		// misses attribute hotness to the wrong methods here), and the two
		// runs share the monitoring cost so the delta is the layout alone.
		cells[i].passive = e.RunAsync(builders[i], RunConfig{
			CodeLayout: true, CodeLayoutConfig: codeLayoutCfg(true),
			Event: cache.EventL1IMiss, Seed: o.Seed,
		}, name+"/layout-off")
		cells[i].active = e.RunAsync(builders[i], RunConfig{
			CodeLayout: true, CodeLayoutConfig: codeLayoutCfg(false),
			Event: cache.EventL1IMiss, Seed: o.Seed,
		}, name+"/layout-on")
	}
	if err := e.Wait(); err != nil {
		return nil, err
	}
	rows := make([]CodeLayoutRow, len(names))
	for i, name := range names {
		passive, active := cells[i].passive.Result(), cells[i].active.Result()
		ks := optKindStats(active, opt.KindCodeLayout)
		pr, ar := passive.ICache.MissRate(), active.ICache.MissRate()
		imp := 0.0
		if pr > 0 {
			imp = 1 - ar/pr
		}
		rows[i] = CodeLayoutRow{
			Program:     name,
			PassiveRate: pr,
			ActiveRate:  ar,
			Improvement: imp,
			Decisions:   ks.Decisions,
			Reverts:     ks.Reverts,
		}
	}
	return rows, nil
}

// CodeLayoutBadPadAtCycle is the point of the injected bad decision in
// the revert scenario: after db's early packed layouts have been
// applied and kept, so the conflict layout is judged against an honest
// steady-state baseline, and inside db's fine-grained alternation
// phase, where same-set alignment actually thrashes a direct-mapped
// cache. Paired with CodeLayoutRevertEvalPeriods.
const CodeLayoutBadPadAtCycle = 120_000_000

// CodeLayoutRevertEvalPeriods is the revert scenario's assessment
// window: short enough that the early layouts settle before the
// injection point and the regression is measured within one phase.
const CodeLayoutRevertEvalPeriods = 3

// CodeLayoutRevertData runs the code-layout equivalent of Figure 8 on
// db: at CodeLayoutBadPadAtCycle the optimization is made to install a
// conflict layout (every hot method padded onto the same cache way).
// The assessment loop must observe the L1I miss-rate regression and
// revert to the packed layout. Returns the decision/revert counters
// and the optimization's decision log.
func CodeLayoutRevertData(o ExpOptions) (opt.KindStats, []string, error) {
	builder, ok := Get("db")
	if !ok {
		return opt.KindStats{}, nil, fmt.Errorf("db workload not registered")
	}
	cfg := codeLayoutCfg(false)
	cfg.BadPadAtCycle = CodeLayoutBadPadAtCycle
	cfg.EvalPeriods = CodeLayoutRevertEvalPeriods
	// Direct-mapped: the conflict layout aligns every hot method onto
	// the same sets, and with a single way any two alternating methods
	// thrash — the regression the assessment loop must catch.
	cfg.ICacheAssoc = 1
	e := o.engine()
	h := e.RunAsync(builder, RunConfig{
		CodeLayout: true, CodeLayoutConfig: cfg,
		Event: cache.EventL1IMiss, Seed: o.Seed,
	}, "db/layout-badpad")
	if err := e.Wait(); err != nil {
		return opt.KindStats{}, nil, err
	}
	res := h.Result()
	return optKindStats(res, opt.KindCodeLayout), h.Sys().OptLog(opt.KindCodeLayout), nil
}

// CodeLayoutExp renders the code-layout experiment: the
// passive-vs-active miss-rate table and the injected-bad-decision
// revert scenario. Headline numbers land in the JSON report as
// opt_codelayout_* metrics.
func CodeLayoutExp(o ExpOptions) (string, error) {
	rows, err := CodeLayoutData(o)
	if err != nil {
		return "", err
	}
	badStats, badLog, err := CodeLayoutRevertData(o)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Code layout: L1I miss rate with hot/cold code layout vs passive monitoring\n")
	fmt.Fprintf(&b, "(%d KB %d-way instruction cache; passive runs observe the same cache\n",
		CodeLayoutICacheSize/1024, CodeLayoutICacheAssoc)
	fmt.Fprintf(&b, " without relocating, so the delta is the layout decisions alone)\n")
	fmt.Fprintf(&b, "%-11s %12s %12s %10s %8s %10s %8s\n",
		"program", "passive", "layout", "improve", "layouts", "decisions", "reverts")
	improved := 0
	var sumImp float64
	var totDec, totRev uint64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %12.5f %12.5f %9.1f%% %8d %10d %8d\n",
			r.Program, r.PassiveRate, r.ActiveRate, 100*r.Improvement,
			r.Decisions, r.Decisions, r.Reverts)
		if r.Improvement > 0 {
			improved++
		}
		sumImp += r.Improvement
		totDec += r.Decisions
		totRev += r.Reverts
		o.recordMetric("opt_codelayout_missrate_improvement_pct_"+r.Program, 100*r.Improvement)
	}
	fmt.Fprintf(&b, "%-11s %37.1f%%\n", "average", 100*sumImp/float64(len(rows)))
	fmt.Fprintf(&b, "\nInjected bad decision (db, conflict layout at cycle %d):\n", CodeLayoutBadPadAtCycle)
	for _, line := range badLog {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	fmt.Fprintf(&b, "decisions %d, reverts %d\n", badStats.Decisions, badStats.Reverts)
	o.recordMetric("opt_codelayout_workloads_improved", float64(improved))
	o.recordMetric("opt_codelayout_mean_improvement_pct", 100*sumImp/float64(len(rows)))
	o.recordMetric("opt_codelayout_decisions_total", float64(totDec+badStats.Decisions))
	o.recordMetric("opt_codelayout_reverts_total", float64(totRev+badStats.Reverts))
	badReverted := 0.0
	if badStats.Reverts >= 1 {
		badReverted = 1
	}
	o.recordMetric("opt_codelayout_bad_decision_reverted", badReverted)
	return b.String(), nil
}
