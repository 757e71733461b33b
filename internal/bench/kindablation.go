package bench

import (
	"fmt"
	"strings"

	"hpmvm/internal/hw/cache"
	"hpmvm/internal/opt"
)

// This file implements the code-layout and prefetch-injection
// experiments: the second and third managed optimizations
// (internal/opt) evaluated the way the paper evaluates co-allocation —
// a passive monitored baseline against the active optimization, plus a
// deliberately poor decision the feedback loop must detect and revert
// (the Figure-8 methodology). One descriptor per kind names the three
// scenarios and the measured quantity; one driver schedules them, does
// the improvement arithmetic and publishes the opt_<kind>_* metrics.
// Only the table rendering is per kind.

// KindAblation describes one managed kind's evaluation. The three
// RunConfigs leave Seed unset; the driver stamps ExpOptions.Seed.
type KindAblation struct {
	Kind string
	// Passive observes everything Active does but never decides, and
	// both sample the same event, so the two runs share the monitoring
	// cost and differ only in the kind's decisions.
	Passive, Active RunConfig
	// BadDecision is the Figure-8 scenario, run on db: an injected
	// regressing decision the assessment loop must take back.
	BadDecision RunConfig

	labels    [3]string             // run-label suffixes: passive, active, bad decision
	measure   func(*Result) float64 // the quantity the kind exists to lower
	rowMetric string                // opt_<kind>_<rowMetric>_<program>

	header   string                   // table title and column header
	row      func(ablationRow) string // one table line
	average  string                   // format of the average line: label, percentage
	badTitle string                   // what the injected decision is
}

// badDecisionAtCycle is the point of the injected bad decision in both
// revert scenarios: after db's early genuine decisions have been
// applied and kept, so the bad one is judged against an honest
// steady-state baseline, and (for the conflict layout) inside db's
// fine-grained alternation phase, where same-set alignment actually
// thrashes a direct-mapped cache. Paired with revertEvalPeriods.
const badDecisionAtCycle = 120_000_000

// revertEvalPeriods is the assessment window of the code-layout revert
// scenario (every prefetch-injection run already uses one as short):
// short enough that the early decisions settle before the injection
// point and the regression is measured within one phase.
const revertEvalPeriods = 3

// codeLayoutICache is the instruction-cache geometry the code-layout
// experiment opts into: 2 KB, 2-way. The boot-time code layout of every
// workload overflows it, so relocating the hot methods into a
// contiguous packed region has a visible effect; the default 8 KB
// geometry is large enough that several workloads fit entirely and the
// experiment would measure nothing.
const (
	codeLayoutICacheSize  = 2 * 1024
	codeLayoutICacheAssoc = 2
)

// codeLayoutRun samples L1I misses: hot-by-instruction-miss methods are
// the set whose placement the layout can actually improve (data misses
// attribute hotness to the wrong methods here).
func codeLayoutRun(cfg opt.CodeLayoutConfig) RunConfig {
	cfg.ICacheSize = codeLayoutICacheSize
	return RunConfig{CodeLayout: true, CodeLayoutConfig: &cfg, Event: cache.EventL1IMiss}
}

// CodeLayoutAblation evaluates hot/cold code layout by L1I miss rate.
var CodeLayoutAblation = KindAblation{
	Kind:    opt.KindCodeLayout,
	Passive: codeLayoutRun(opt.CodeLayoutConfig{ICacheAssoc: codeLayoutICacheAssoc, Passive: true}),
	Active:  codeLayoutRun(opt.CodeLayoutConfig{ICacheAssoc: codeLayoutICacheAssoc}),
	// The optimization is made to install a conflict layout (every hot
	// method padded onto the same cache way). Direct-mapped: with a
	// single way any two alternating methods thrash — the regression
	// the assessment loop must catch.
	BadDecision: codeLayoutRun(opt.CodeLayoutConfig{
		ICacheAssoc:   1,
		BadPadAtCycle: badDecisionAtCycle,
		EvalPeriods:   revertEvalPeriods,
	}),
	labels:    [3]string{"layout-off", "layout-on", "layout-badpad"},
	measure:   func(r *Result) float64 { return r.ICache.MissRate() },
	rowMetric: "missrate_improvement_pct",
	header: fmt.Sprintf("Code layout: L1I miss rate with hot/cold code layout vs passive monitoring\n"+
		"(%d KB %d-way instruction cache; passive runs observe the same cache\n"+
		" without relocating, so the delta is the layout decisions alone)\n"+
		"%-11s %12s %12s %10s %8s %10s %8s\n",
		codeLayoutICacheSize/1024, codeLayoutICacheAssoc,
		"program", "passive", "layout", "improve", "layouts", "decisions", "reverts"),
	row: func(r ablationRow) string {
		return fmt.Sprintf("%-11s %12.5f %12.5f %9.1f%% %8d %10d %8d\n",
			r.Program, r.Passive.ICache.MissRate(), r.Active.ICache.MissRate(), 100*r.Improvement,
			r.Stats.Decisions, r.Stats.Decisions, r.Stats.Reverts)
	},
	average:  "%-11s %37.1f%%\n",
	badTitle: fmt.Sprintf("db, conflict layout at cycle %d", badDecisionAtCycle),
}

// swPrefetchRun samples L1 misses: the software prefetcher's niche is
// L2-resident strided streams the L2-trained hardware prefetcher cannot
// see. The assessment window is shorter than the library default: most
// workloads finish within ~16 monitor polls, and a 3-poll window lets
// the first injection land while there is still run left to improve.
func swPrefetchRun(cfg opt.SwPrefetchConfig) RunConfig {
	cfg.MinSamples = 16
	cfg.EvalPeriods = 3
	return RunConfig{SwPrefetch: true, SwPrefetchConfig: &cfg, Event: cache.EventL1Miss}
}

// swPrefetchBadDecision makes the optimization install a polluting site
// set (every prefetch evicts the demand line's own L1 set). Never back
// off: genuine injections reverted before the injection point must not
// suppress the scenario's one deliberate bad call. The run opts into a
// pressured geometry: a small direct-mapped L1 so the polluting set
// (delta −L1Size aliases every prefetch onto the demand line's own set)
// actually thrashes, and large pages so those prefetches survive the
// page-boundary clamp instead of being squashed at issue.
func swPrefetchBadDecision() RunConfig {
	pressured := cache.DefaultP4()
	pressured.L1Size = 4 * 1024
	pressured.L1Assoc = 1
	pressured.PageSize = 16 * 1024
	cfg := swPrefetchRun(opt.SwPrefetchConfig{BadInjectAtCycle: badDecisionAtCycle, MaxReverts: -1})
	cfg.CacheConfig = &pressured
	return cfg
}

// SwPrefetchAblation evaluates PEBS-driven software prefetch injection
// by total cycles.
var SwPrefetchAblation = KindAblation{
	Kind:        opt.KindSwPrefetch,
	Passive:     swPrefetchRun(opt.SwPrefetchConfig{Passive: true}),
	Active:      swPrefetchRun(opt.SwPrefetchConfig{}),
	BadDecision: swPrefetchBadDecision(),
	labels:      [3]string{"swpf-off", "swpf-on", "swpf-badinject"},
	measure:     func(r *Result) float64 { return float64(r.Cycles) },
	rowMetric:   "cycles_reduction_pct",
	header: fmt.Sprintf("Software prefetch: total cycles with PEBS-driven prefetch injection vs passive monitoring\n"+
		"(per-PC stride detection over sampled L1-miss addresses; passive runs train the\n"+
		" same detector without injecting, so the delta is the injection decisions alone)\n"+
		"%-11s %14s %14s %9s %10s %9s %8s %10s %8s\n",
		"program", "passive", "swprefetch", "improve", "issued", "hits", "epochs", "decisions", "reverts"),
	row: func(r ablationRow) string {
		return fmt.Sprintf("%-11s %14d %14d %8.2f%% %10d %9d %8d %10d %8d\n",
			r.Program, r.Passive.Cycles, r.Active.Cycles, 100*r.Improvement,
			r.Active.Cache.SwPrefetches, r.Active.Cache.SwPrefetchHits,
			r.Stats.Decisions, r.Stats.Decisions, r.Stats.Reverts)
	},
	average:  "%-11s %39.2f%%\n",
	badTitle: fmt.Sprintf("db, polluting site set at cycle %d, pressured 4 KB direct-mapped L1", badDecisionAtCycle),
}

// ablationRow is one program's passive-vs-active comparison.
type ablationRow struct {
	Program         string
	Passive, Active *Result
	Improvement     float64       // fraction of the passive run's measured quantity removed
	Stats           opt.KindStats // the active run's decisions (includes bad ones) and reverts
}

// seeded returns the scenario's RunConfig with the experiment's seed.
func (o ExpOptions) seeded(cfg RunConfig) RunConfig {
	cfg.Seed = o.Seed
	return cfg
}

// kindStats extracts the ablated kind's counter row from a Result.
func (a *KindAblation) kindStats(res *Result) opt.KindStats {
	for _, k := range res.Opt {
		if k.Kind == a.Kind {
			return k
		}
	}
	return opt.KindStats{Kind: a.Kind}
}

// rows measures the kind active against its passive baseline for every
// workload. Both runs of every workload execute in parallel on the
// engine.
func (a *KindAblation) rows(o ExpOptions) ([]ablationRow, error) {
	type cell struct{ passive, active *RunHandle }
	cells := make([]cell, len(o.names))
	for i, name := range o.names {
		cells[i] = cell{
			passive: o.eng.RunAsync(o.builders[i], o.seeded(a.Passive), name+"/"+a.labels[0]),
			active:  o.eng.RunAsync(o.builders[i], o.seeded(a.Active), name+"/"+a.labels[1]),
		}
	}
	if err := o.eng.Wait(); err != nil {
		return nil, err
	}
	rows := make([]ablationRow, len(o.names))
	for i, name := range o.names {
		passive, active := cells[i].passive.Result(), cells[i].active.Result()
		imp := 0.0
		if p := a.measure(passive); p > 0 {
			imp = 1 - a.measure(active)/p
		}
		rows[i] = ablationRow{name, passive, active, imp, a.kindStats(active)}
	}
	return rows, nil
}

// revert runs the BadDecision scenario on db and returns the
// decision/revert counters and the manager's decision records.
func (a *KindAblation) revert(o ExpOptions) (opt.KindStats, []opt.Record, error) {
	builder, err := Lookup("db")
	if err != nil {
		return opt.KindStats{}, nil, err
	}
	h := o.eng.RunAsync(builder, o.seeded(a.BadDecision), "db/"+a.labels[2])
	if err := o.eng.Wait(); err != nil {
		return opt.KindStats{}, nil, err
	}
	return a.kindStats(h.Result()), h.Sys().OptManager.Records(), nil
}

// exp renders the experiment: the passive-vs-active table and the
// injected-bad-decision revert scenario. Headline numbers land in the
// JSON report as opt_<kind>_* metrics.
func (a *KindAblation) exp(o ExpOptions) (string, error) {
	rows, err := a.rows(o)
	if err != nil {
		return "", err
	}
	badStats, badRecords, err := a.revert(o)
	if err != nil {
		return "", err
	}
	metric := func(name string, v float64) { o.recordMetric("opt_"+a.Kind+"_"+name, v) }
	var b strings.Builder
	b.WriteString(a.header)
	improved := 0
	var sumImp float64
	totDec, totRev := badStats.Decisions, badStats.Reverts
	for _, r := range rows {
		b.WriteString(a.row(r))
		if r.Improvement > 0 {
			improved++
		}
		sumImp += r.Improvement
		totDec += r.Stats.Decisions
		totRev += r.Stats.Reverts
		metric(a.rowMetric+"_"+r.Program, 100*r.Improvement)
	}
	mean := 100 * sumImp / float64(len(rows))
	fmt.Fprintf(&b, a.average, "average", mean)
	fmt.Fprintf(&b, "\nInjected bad decision (%s):\n", a.badTitle)
	for _, r := range badRecords {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	fmt.Fprintf(&b, "decisions %d, reverts %d\n", badStats.Decisions, badStats.Reverts)
	metric("workloads_improved", float64(improved))
	metric("mean_improvement_pct", mean)
	metric("decisions_total", float64(totDec))
	metric("reverts_total", float64(totRev))
	badReverted := 0.0
	if badStats.Reverts >= 1 {
		badReverted = 1
	}
	metric("bad_decision_reverted", badReverted)
	return b.String(), nil
}

// SwPrefetchRow is one program's passive-vs-active comparison.
type SwPrefetchRow struct {
	Program       string
	PassiveCycles uint64 // total cycles, monitored but never injecting
	ActiveCycles  uint64 // total cycles with prefetch injection active
	SwPrefetches  uint64 // software prefetches the active run issued
	Decisions     uint64 // injections the active run applied
	Reverts       uint64 // decisions the assessment loop took back
}

// SwPrefetchData is the prefetch-injection ablation as structured data:
// total cycles with injection active against the passive monitored
// baseline for every workload.
func SwPrefetchData(o ExpOptions) ([]SwPrefetchRow, error) {
	o, err := o.prepare()
	if err != nil {
		return nil, err
	}
	rows, err := SwPrefetchAblation.rows(o)
	if err != nil {
		return nil, err
	}
	out := make([]SwPrefetchRow, len(rows))
	for i, r := range rows {
		out[i] = SwPrefetchRow{r.Program, r.Passive.Cycles, r.Active.Cycles,
			r.Active.Cache.SwPrefetches, r.Stats.Decisions, r.Stats.Reverts}
	}
	return out, nil
}
