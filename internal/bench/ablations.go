package bench

import (
	"fmt"
	"strings"

	"hpmvm/internal/hw/cache"
)

// Ablation experiments for the design choices DESIGN.md calls out.
// They are not paper figures, but each one probes a claim the paper
// makes in passing:
//
//   - event choice: "(Using TLB misses as driver for the optimization
//     decisions does not improve the results.)" (§6.3)
//   - prefetching: the P4's hardware prefetcher interacts with spatial
//     locality optimizations (§6.1 mentions the prefetcher explicitly)
//   - inlining: the opt compiler's inlining is what exposes access
//     paths to the §5.2 analysis inside hot loops
//
// All ablations run the db workload, the paper's headline case.

// ablations runs the ablation suite on db and renders the results.
// The seven independent runs (three configurations per ablation, two
// of them shared) all execute in parallel on the engine; the report
// renders in a fixed order afterwards.
func ablations(opt ExpOptions) (string, error) {
	builder, err := Lookup("db")
	if err != nil {
		return "", err
	}
	submit := func(label string, cfg RunConfig) *RunHandle {
		return opt.eng.RunAsync(builder, opt.seeded(cfg), "db/"+label)
	}
	nopfCache := cache.DefaultP4()
	nopfCache.PrefetchEnabled = false

	hBase := submit("base", RunConfig{})
	hL1co := submit("coalloc-l1", RunConfig{Coalloc: true})
	hTLBco := submit("coalloc-tlb", RunConfig{Coalloc: true, Event: cache.EventDTLBMiss})
	hBasePF := submit("nopf-base", RunConfig{CacheConfig: &nopfCache})
	hCoPF := submit("nopf-coalloc", RunConfig{Coalloc: true, CacheConfig: &nopfCache})
	hBase1 := submit("opt1-base", RunConfig{OptLevel: 1})
	hCo1 := submit("opt1-coalloc", RunConfig{OptLevel: 1, Coalloc: true})
	if err := opt.eng.Wait(); err != nil {
		return "", err
	}
	base, l1co, tlbco := hBase.Result(), hL1co.Result(), hTLBco.Result()
	basePF, coPF := hBasePF.Result(), hCoPF.Result()
	base1, co1 := hBase1.Result(), hCo1.Result()

	var b strings.Builder
	fmt.Fprintf(&b, "Ablations on db (heap = 4x min)\n\n")

	// --- Event choice: L1- vs DTLB-driven co-allocation ---------------
	fmt.Fprintf(&b, "event choice (paper §6.3: TLB-driven guidance does not improve results)\n")
	fmt.Fprintf(&b, "%-22s %14s %12s %8s %9s\n", "config", "cycles", "L1 misses", "pairs", "speedup")
	row := func(name string, r *Result, against *Result) {
		fmt.Fprintf(&b, "%-22s %14d %12d %8d %8.1f%%\n",
			name, r.Cycles, r.Cache.L1Misses, r.CoallocPairs,
			100*(1-float64(r.Cycles)/float64(against.Cycles)))
	}
	row("baseline", base, base)
	row("coalloc (L1-driven)", l1co, base)
	row("coalloc (TLB-driven)", tlbco, base)
	fmt.Fprintln(&b)

	// --- Hardware prefetcher on/off ------------------------------------
	fmt.Fprintf(&b, "hardware prefetcher (co-allocation benefit with and without it)\n")
	fmt.Fprintf(&b, "%-22s %14s %12s %9s\n", "config", "cycles", "L1 misses", "speedup")
	fmt.Fprintf(&b, "%-22s %14d %12d %9s\n", "prefetch on, base", base.Cycles, base.Cache.L1Misses, "-")
	fmt.Fprintf(&b, "%-22s %14d %12d %8.1f%%\n", "prefetch on, coalloc",
		l1co.Cycles, l1co.Cache.L1Misses, 100*(1-float64(l1co.Cycles)/float64(base.Cycles)))
	fmt.Fprintf(&b, "%-22s %14d %12d %9s\n", "prefetch off, base", basePF.Cycles, basePF.Cache.L1Misses, "-")
	fmt.Fprintf(&b, "%-22s %14d %12d %8.1f%%\n", "prefetch off, coalloc",
		coPF.Cycles, coPF.Cache.L1Misses, 100*(1-float64(coPF.Cycles)/float64(basePF.Cycles)))
	fmt.Fprintln(&b)

	// --- Inlining: opt level 1 (no inlining) vs 2 ----------------------
	fmt.Fprintf(&b, "inlining (access paths inside hot loops are visible only after inlining)\n")
	fmt.Fprintf(&b, "%-22s %14s %12s %8s %9s\n", "config", "cycles", "L1 misses", "pairs", "speedup")
	row("opt1 base", base1, base1)
	row("opt1 coalloc", co1, base1)
	row("opt2 base", base, base)
	row("opt2 coalloc", l1co, base)
	return b.String(), nil
}
