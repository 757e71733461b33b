// dblocality reproduces the paper's headline result interactively: the
// db benchmark (SPECjvm98 _209_db analogue) runs once on the plain
// GenMS collector and once with HPM-guided object co-allocation, and
// the example reports the L1 miss reduction and speedup, plus the
// GenCopy comparison of Figure 6.
//
//	go run ./examples/dblocality
package main

import (
	"fmt"
	"log"

	"hpmvm/internal/bench"
	_ "hpmvm/internal/bench/workloads"
	"hpmvm/internal/coalloc"
	"hpmvm/internal/core"
	"hpmvm/internal/opt"
)

func main() {
	builder, ok := bench.Get("db")
	if !ok {
		log.Fatal("db workload not registered")
	}

	fmt.Println("running db on GenMS (baseline)...")
	base, _, err := bench.Run(builder, bench.RunConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("running db on GenMS + HPM-guided co-allocation...")
	co, sys, err := bench.Run(builder, bench.RunConfig{Coalloc: true, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("running db on GenCopy (copying comparator)...")
	gc, _, err := bench.Run(builder, bench.RunConfig{Collector: core.GenCopy, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("%-22s %14s %14s %10s\n", "configuration", "cycles", "L1 misses", "GCs (m/M)")
	row := func(name string, r *bench.Result) {
		fmt.Printf("%-22s %14d %14d %6d/%d\n", name, r.Cycles, r.Cache.L1Misses, r.MinorGCs, r.MajorGCs)
	}
	row("GenMS baseline", base)
	row("GenMS + co-allocation", co)
	row("GenCopy", gc)

	fmt.Println()
	fmt.Printf("co-allocated pairs    : %d (internal fragmentation %.1f%%)\n",
		co.CoallocPairs, 100*co.Fragmentation)
	fmt.Printf("L1 miss reduction     : %.1f%%\n",
		100*(1-float64(co.Cache.L1Misses)/float64(base.Cache.L1Misses)))
	fmt.Printf("speedup vs GenMS      : %.1f%%\n",
		100*(1-float64(co.Cycles)/float64(base.Cycles)))
	fmt.Printf("speedup vs GenCopy    : %.1f%%\n",
		100*(1-float64(co.Cycles)/float64(gc.Cycles)))

	fmt.Println()
	fmt.Println("what the monitor saw:")
	fmt.Print(sys.Monitor.Report(4))
	fmt.Println("policy decisions:")
	for _, d := range sys.Optimization(opt.KindCoalloc).(*coalloc.Policy).Decisions() {
		fmt.Printf("  %-24s %-9s pairs=%d\n", d.Field.QualifiedName(), d.Mode, d.Pairs)
	}
}
