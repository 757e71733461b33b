package bench

import (
	"fmt"
	"strings"

	"hpmvm/internal/hw/cache"
	"hpmvm/internal/opt"
)

// This file implements the prefetch-injection experiment: the third
// managed optimization (software prefetch injection, internal/opt)
// evaluated the same way as co-allocation and code layout — a passive
// monitored baseline (the stride detector runs but never injects)
// against the active optimization, plus a deliberately poor decision
// the feedback loop must detect and revert.

// swPrefetchCfg returns the experiment's optimization config; passive
// runs train the same detector on the same samples without installing
// sites, so the two runs differ only in the injection decisions. The
// assessment window is shorter than the library default: most
// workloads finish within ~16 monitor polls, and a 3-poll window lets
// the first injection land while there is still run left to improve.
func swPrefetchCfg(passive bool) *opt.SwPrefetchConfig {
	return &opt.SwPrefetchConfig{
		MinSamples:  16,
		EvalPeriods: 3,
		Passive:     passive,
	}
}

// SwPrefetchRow is one program's passive-vs-active comparison.
type SwPrefetchRow struct {
	Program       string
	PassiveCycles uint64  // total cycles, monitored but never injecting
	ActiveCycles  uint64  // total cycles with prefetch injection active
	Improvement   float64 // fraction of passive cycles removed
	SwPrefetches  uint64  // software prefetches the active run issued
	SwHits        uint64  // demand accesses that hit an injected line
	Decisions     uint64  // injections the active run applied (includes polluting ones)
	Reverts       uint64  // decisions the assessment loop took back
}

// SwPrefetchData measures total cycles with prefetch injection active
// against a passive monitored baseline (same detector, no injection)
// for every workload. Both runs of every workload execute in parallel
// on the engine.
func SwPrefetchData(o ExpOptions) ([]SwPrefetchRow, error) {
	e := o.engine()
	names, builders, err := o.builders()
	if err != nil {
		return nil, err
	}
	type cell struct{ passive, active *RunHandle }
	cells := make([]cell, len(names))
	for i, name := range names {
		// Both runs sample L1 misses: the software prefetcher's niche is
		// L2-resident strided streams the L2-trained hardware prefetcher
		// cannot see, and the two runs share the monitoring cost so the
		// delta is the injections alone.
		cells[i].passive = e.RunAsync(builders[i], RunConfig{
			SwPrefetch: true, SwPrefetchConfig: swPrefetchCfg(true),
			Event: cache.EventL1Miss, Seed: o.Seed,
		}, name+"/swpf-off")
		cells[i].active = e.RunAsync(builders[i], RunConfig{
			SwPrefetch: true, SwPrefetchConfig: swPrefetchCfg(false),
			Event: cache.EventL1Miss, Seed: o.Seed,
		}, name+"/swpf-on")
	}
	if err := e.Wait(); err != nil {
		return nil, err
	}
	rows := make([]SwPrefetchRow, len(names))
	for i, name := range names {
		passive, active := cells[i].passive.Result(), cells[i].active.Result()
		ks := optKindStats(active, opt.KindSwPrefetch)
		pc, ac := passive.Cycles, active.Cycles
		imp := 0.0
		if pc > 0 {
			imp = 1 - float64(ac)/float64(pc)
		}
		rows[i] = SwPrefetchRow{
			Program:       name,
			PassiveCycles: pc,
			ActiveCycles:  ac,
			Improvement:   imp,
			SwPrefetches:  active.Cache.SwPrefetches,
			SwHits:        active.Cache.SwPrefetchHits,
			Decisions:     ks.Decisions,
			Reverts:       ks.Reverts,
		}
	}
	return rows, nil
}

// SwPrefetchBadInjectAtCycle is the point of the injected bad decision
// in the revert scenario: late enough that the early genuine
// injections have settled and the polluting site set is judged against
// an honest steady-state baseline.
const SwPrefetchBadInjectAtCycle = 120_000_000

// SwPrefetchRevertEvalPeriods is the revert scenario's assessment
// window: short enough that the early injections settle before the
// injection point and the regression is measured within one phase.
const SwPrefetchRevertEvalPeriods = 3

// SwPrefetchRevertCache is the pressured geometry the revert scenario
// opts into: a small direct-mapped L1 so the polluting site set
// (delta −L1Size aliases every prefetch onto the demand line's own
// set) actually thrashes, and large pages so those prefetches survive
// the page-boundary clamp instead of being squashed at issue.
func SwPrefetchRevertCache() cache.Config {
	cfg := cache.DefaultP4()
	cfg.L1Size = 4 * 1024
	cfg.L1Assoc = 1
	cfg.PageSize = 16 * 1024
	return cfg
}

// SwPrefetchRevertData runs the prefetch-injection equivalent of
// Figure 8 on db: at SwPrefetchBadInjectAtCycle the optimization is
// made to install a polluting site set (every prefetch evicts the
// demand line's own L1 set). The assessment loop must observe the
// cycles-per-access regression and revert to the previous site set.
// Returns the decision/revert counters and the decision log.
func SwPrefetchRevertData(o ExpOptions) (opt.KindStats, []string, error) {
	builder, ok := Get("db")
	if !ok {
		return opt.KindStats{}, nil, fmt.Errorf("db workload not registered")
	}
	cfg := swPrefetchCfg(false)
	cfg.BadInjectAtCycle = SwPrefetchBadInjectAtCycle
	cfg.EvalPeriods = SwPrefetchRevertEvalPeriods
	// Never back off: genuine injections reverted before the injection
	// point must not suppress the scenario's one deliberate bad call.
	cfg.MaxReverts = -1
	pressured := SwPrefetchRevertCache()
	e := o.engine()
	h := e.RunAsync(builder, RunConfig{
		SwPrefetch: true, SwPrefetchConfig: cfg,
		CacheConfig: &pressured,
		Event:       cache.EventL1Miss, Seed: o.Seed,
	}, "db/swpf-badinject")
	if err := e.Wait(); err != nil {
		return opt.KindStats{}, nil, err
	}
	res := h.Result()
	return optKindStats(res, opt.KindSwPrefetch), h.Sys().OptLog(opt.KindSwPrefetch), nil
}

// SwPrefetchExp renders the prefetch-injection experiment: the
// passive-vs-active cycle table and the injected-bad-decision revert
// scenario. Headline numbers land in the JSON report as
// opt_swprefetch_* metrics.
func SwPrefetchExp(o ExpOptions) (string, error) {
	rows, err := SwPrefetchData(o)
	if err != nil {
		return "", err
	}
	badStats, badLog, err := SwPrefetchRevertData(o)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Software prefetch: total cycles with PEBS-driven prefetch injection vs passive monitoring\n")
	fmt.Fprintf(&b, "(per-PC stride detection over sampled L1-miss addresses; passive runs train the\n")
	fmt.Fprintf(&b, " same detector without injecting, so the delta is the injection decisions alone)\n")
	fmt.Fprintf(&b, "%-11s %14s %14s %9s %10s %9s %8s %10s %8s\n",
		"program", "passive", "swprefetch", "improve", "issued", "hits", "epochs", "decisions", "reverts")
	improved := 0
	var sumImp float64
	var totDec, totRev uint64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %14d %14d %8.2f%% %10d %9d %8d %10d %8d\n",
			r.Program, r.PassiveCycles, r.ActiveCycles, 100*r.Improvement,
			r.SwPrefetches, r.SwHits, r.Decisions, r.Decisions, r.Reverts)
		if r.Improvement > 0 {
			improved++
		}
		sumImp += r.Improvement
		totDec += r.Decisions
		totRev += r.Reverts
		o.recordMetric("opt_swprefetch_cycles_reduction_pct_"+r.Program, 100*r.Improvement)
	}
	fmt.Fprintf(&b, "%-11s %39.2f%%\n", "average", 100*sumImp/float64(len(rows)))
	fmt.Fprintf(&b, "\nInjected bad decision (db, polluting site set at cycle %d, pressured 4 KB direct-mapped L1):\n",
		SwPrefetchBadInjectAtCycle)
	for _, line := range badLog {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	fmt.Fprintf(&b, "decisions %d, reverts %d\n", badStats.Decisions, badStats.Reverts)
	o.recordMetric("opt_swprefetch_workloads_improved", float64(improved))
	o.recordMetric("opt_swprefetch_mean_improvement_pct", 100*sumImp/float64(len(rows)))
	o.recordMetric("opt_swprefetch_decisions_total", float64(totDec+badStats.Decisions))
	o.recordMetric("opt_swprefetch_reverts_total", float64(totRev+badStats.Reverts))
	badReverted := 0.0
	if badStats.Reverts >= 1 {
		badReverted = 1
	}
	o.recordMetric("opt_swprefetch_bad_decision_reverted", badReverted)
	return b.String(), nil
}
