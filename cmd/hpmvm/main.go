// Command hpmvm runs one benchmark program on the simulated
// platform under a chosen configuration and reports execution
// statistics — the quickest way to poke at the system.
//
// Usage:
//
//	hpmvm -workload db
//	hpmvm -workload db -coalloc -interval 0 -heap 4.0
//	hpmvm -workload hsqldb -collector gencopy -v
//
// Exit codes: 0 success, 1 run failure (the simulation started and
// failed), 2 configuration error (unknown workload, invalid option
// combination — errors.Is core.ErrBadOptions / bench.ErrUnknownWorkload).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"hpmvm/internal/bench"
	_ "hpmvm/internal/bench/workloads"
	"hpmvm/internal/coalloc"
	"hpmvm/internal/core"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/hw/cpu"
	"hpmvm/internal/opt"
	"hpmvm/internal/vm/bytecode"
)

const (
	exitRunFailure  = 1
	exitConfigError = 2
)

// fail prints the error and exits with the config/run distinction.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "hpmvm: %v\n", err)
	if errors.Is(err, core.ErrBadOptions) || errors.Is(err, bench.ErrUnknownWorkload) {
		os.Exit(exitConfigError)
	}
	os.Exit(exitRunFailure)
}

func main() {
	workload := flag.String("workload", "db", "workload name (see -list)")
	list := flag.Bool("list", false, "list workloads and exit")
	heapf := flag.Float64("heap", 4.0, "heap size as a multiple of the workload's min heap")
	heapBytes := flag.Uint64("heap-bytes", 0, "explicit heap size in bytes (overrides -heap)")
	collector := flag.String("collector", "genms", "collector: genms or gencopy")
	monitoring := flag.Bool("monitor", false, "enable HPM sampling")
	interval := flag.Uint64("interval", 0, "sampling interval in events (0 = auto)")
	coallocOn := flag.Bool("coalloc", false, "enable HPM-guided co-allocation (implies -monitor)")
	codelayout := flag.Bool("codelayout", false, "enable hot/cold code layout (implies -monitor; pair with -event l1i)")
	swprefetch := flag.Bool("swprefetch", false, "enable software prefetch injection (implies -monitor)")
	event := flag.String("event", "", "sampled event: l1 (default), l2, dtlb or l1i")
	gap := flag.Uint64("gap", 0, "pathological placement gap in bytes (Figure 8)")
	adaptive := flag.Bool("adaptive", false, "AOS recording mode instead of the all-opt plan")
	seed := flag.Int64("seed", 1, "PRNG seed")
	verbose := flag.Bool("v", false, "print monitor and GC detail")
	disasm := flag.String("disasm", "", "disassemble a method (\"Class::name\") instead of running")
	flag.Parse()

	if *list {
		for _, n := range bench.Names() {
			m, _ := bench.MetaOf(n)
			fmt.Printf("%-11s %s\n", n, m.Description)
		}
		return
	}

	builder, err := bench.Lookup(*workload)
	if err != nil {
		fail(fmt.Errorf("%w (try -list)", err))
	}
	cfg := bench.RunConfig{
		HeapFactor: *heapf,
		Heap:       *heapBytes,
		Monitoring: *monitoring,
		Interval:   *interval,
		Coalloc:    *coallocOn,
		CodeLayout: *codelayout,
		SwPrefetch: *swprefetch,
		Adaptive:   *adaptive,
		Seed:       *seed,
	}
	if *gap != 0 {
		if !*coallocOn {
			fail(fmt.Errorf("%w: -gap tunes co-allocation and needs -coalloc", core.ErrBadOptions))
		}
		cfg.CoallocConfig = &coalloc.Config{Gap: *gap}
	}
	if cfg.Collector, err = core.ParseCollector(*collector); err != nil {
		fail(err)
	}
	if cfg.Event, err = cache.ParseEventKind(*event); err != nil {
		fail(fmt.Errorf("%w: %v", core.ErrBadOptions, err))
	}
	if *disasm != "" {
		if err := disassemble(builder, *disasm); err != nil {
			fail(err)
		}
		return
	}

	res, sys, err := bench.Run(builder, cfg)
	if err != nil {
		fail(err)
	}

	fmt.Printf("workload    %s (heap %d bytes, %s)\n", res.Program, res.HeapBytes, sys.VM.Collector.Name())
	fmt.Printf("results     %v\n", res.Results)
	fmt.Printf("cycles      %d\n", res.Cycles)
	fmt.Printf("instret     %d\n", res.Instret)
	fmt.Printf("CPI         %.2f\n", float64(res.Cycles)/float64(res.Instret))
	fmt.Printf("L1 misses   %d (%.3f/kinstr)\n", res.Cache.L1Misses, 1000*float64(res.Cache.L1Misses)/float64(res.Instret))
	fmt.Printf("L2 misses   %d\n", res.Cache.L2Misses)
	fmt.Printf("DTLB misses %d\n", res.Cache.TLBMisses)
	if cfg.SwPrefetch {
		fmt.Printf("sw prefetch %d issued, %d hits (accuracy %.1f%%)\n",
			res.Cache.SwPrefetches, res.Cache.SwPrefetchHits, 100*res.Cache.SwPrefetchAccuracy())
	}
	fmt.Printf("GC          %d minor, %d major (%d cycles)\n", res.MinorGCs, res.MajorGCs, res.GCCycles)
	if cfg.Coalloc {
		fmt.Printf("coalloc     %d pairs (fragmentation %.1f%%)\n", res.CoallocPairs, 100*res.Fragmentation)
	}
	for _, k := range res.Opt {
		fmt.Printf("opt         %s: %d decisions, %d reverts\n", k.Kind, k.Decisions, k.Reverts)
	}
	if res.Config.Monitoring {
		ms := res.MonitorStats
		fmt.Printf("monitor     %d polls, %d samples (%d dropped), %d cycles\n",
			ms.Polls, ms.SamplesDecoded, ms.SamplesDropped, ms.MonitorCycles)
	}
	if census := sys.VM.CPU.Census(); census != "" {
		fmt.Printf("census      %s\n", census)
	}
	if *verbose {
		if sys.Monitor != nil {
			fmt.Println()
			fmt.Print(sys.Monitor.Report(10))
			for _, e := range sys.Monitor.PhaseEvents() {
				fmt.Printf("  %s\n", e)
			}
		}
		if p, ok := sys.Optimization(opt.KindCoalloc).(*coalloc.Policy); ok {
			fmt.Println("policy decisions:")
			for _, d := range p.Decisions() {
				fmt.Printf("  %-24s %-9s pairs=%d reverts=%d\n", d.Field.QualifiedName(), d.Mode, d.Pairs, d.Reverts)
			}
		}
		if sys.OptManager != nil {
			fmt.Println("decision log:")
			for _, r := range sys.OptManager.Records() {
				fmt.Printf("  %s\n", r)
			}
		}
		if sys.AOS != nil {
			fmt.Print(sys.AOS.Report(10))
		}
	}
}

// disassemble boots the workload, compiles it with the default plan,
// and prints the bytecode and annotated machine code of one method.
func disassemble(builder bench.Builder, name string) error {
	prog, sys, err := bench.BuildSystem(builder, bench.RunConfig{Seed: 1})
	if err != nil {
		return err
	}
	for _, m := range prog.U.Methods() {
		if m.QualifiedName() != name || m.Code == nil {
			continue
		}
		code := m.Code.(*bytecode.Code)
		fmt.Print(code.Disassemble())
		fmt.Println()
		for _, body := range sys.VM.Table.Bodies() {
			if body.Method != m || body.Obsolete {
				continue
			}
			kind := "baseline"
			if body.Opt {
				kind = "opt"
			}
			fmt.Printf("%s body [%#x,%#x), %d GC points, frame %d slots:\n",
				kind, body.Start, body.End, len(body.GCPoints), body.FrameSlots)
			for pc := body.Start; pc < body.End; pc += cpu.InstrBytes {
				in, _ := sys.VM.CPU.InstrAt(pc)
				bci := "      "
				if b, ok := body.BytecodeAt(pc); ok {
					bci = fmt.Sprintf("bci%3d", b)
				}
				gcMark := " "
				if gp := body.GCPointAt(pc); gp != nil {
					gcMark = "*"
				}
				fmt.Printf("  %#x %s %s %s\n", pc, bci, gcMark, in)
			}
		}
		return nil
	}
	// List candidates on miss.
	fmt.Fprintln(os.Stderr, "methods:")
	for _, m := range prog.U.Methods() {
		if m.Code != nil {
			fmt.Fprintf(os.Stderr, "  %s\n", m.QualifiedName())
		}
	}
	return fmt.Errorf("method %q not found", name)
}
