package bench_test

import (
	"fmt"
	"strings"
	"testing"

	"hpmvm/internal/bench"
	_ "hpmvm/internal/bench/workloads"
)

// formatResult digests every metric an experiment table could print.
func formatResult(r *bench.Result) string {
	return fmt.Sprintf(
		"%s heap=%d cycles=%d instret=%d l1=%d l2=%d tlb=%d wb=%d pf=%d cyc=%d minor=%d major=%d pairs=%d gccyc=%d frag=%.6f samples=%d results=%v",
		r.Program, r.HeapBytes, r.Cycles, r.Instret,
		r.Cache.L1Misses, r.Cache.L2Misses, r.Cache.TLBMisses, r.Cache.Writebacks,
		r.Cache.Prefetches, r.Cache.Cycles,
		r.MinorGCs, r.MajorGCs, r.CoallocPairs, r.GCCycles, r.Fragmentation,
		r.SamplesTaken, clipResults(r.Results))
}

func clipResults(xs []int64) []int64 {
	if len(xs) > 4 {
		return xs[:4]
	}
	return xs
}

// sweepConfigs is the small full sweep of the determinism test: one
// workload at 2 heap sizes × 2 configs (baseline, co-allocation).
func sweepConfigs() []bench.RunConfig {
	var cfgs []bench.RunConfig
	for _, f := range []float64{1.5, 3} {
		for _, co := range []bool{false, true} {
			cfgs = append(cfgs, bench.RunConfig{HeapFactor: f, Coalloc: co, Seed: 11})
		}
	}
	return cfgs
}

// engineSweep runs the sweep on a pool of the given width and formats
// the results in submission order.
func engineSweep(t *testing.T, jobs int) string {
	t.Helper()
	builder, ok := bench.Get("compress")
	if !ok {
		t.Fatal("compress workload not registered")
	}
	e := bench.NewEngine(jobs)
	var handles []*bench.RunHandle
	for _, cfg := range sweepConfigs() {
		handles = append(handles, e.RunAsync(builder, cfg, "compress"))
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, h := range handles {
		fmt.Fprintln(&b, formatResult(h.Result()))
	}
	return b.String()
}

// TestParallelSweepByteIdentical is the determinism guarantee of the
// parallel experiment engine: a full (heap size × config) sweep
// produces byte-identical formatted results serially (jobs=1), on a
// wide pool (jobs=4), and through the plain serial Run loop — every
// run owns its seed, PRNG and simulated machine, so the jobs setting
// cannot influence any simulated number.
func TestParallelSweepByteIdentical(t *testing.T) {
	builder, _ := bench.Get("compress")
	var direct strings.Builder
	for _, cfg := range sweepConfigs() {
		r, _, err := bench.Run(builder, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&direct, formatResult(r))
	}

	serial := engineSweep(t, 1)
	parallel := engineSweep(t, 4)

	if serial != parallel {
		t.Errorf("jobs=1 and jobs=4 sweeps differ:\n--- jobs=1\n%s--- jobs=4\n%s", serial, parallel)
	}
	if direct.String() != serial {
		t.Errorf("engine sweep differs from direct serial loop:\n--- direct\n%s--- engine\n%s", direct.String(), serial)
	}
}

// TestExperimentOutputIdenticalAcrossJobs checks the same property one
// layer up: a rendered experiment table is byte-identical between
// jobs=1 and jobs=4.
func TestExperimentOutputIdenticalAcrossJobs(t *testing.T) {
	opt := bench.ExpOptions{Workloads: []string{"compress"}, Reps: 1, Seed: 1}
	opt.Jobs = 1
	one, err := bench.RunExperiment("fig4", opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Jobs = 4
	four, err := bench.RunExperiment("fig4", opt)
	if err != nil {
		t.Fatal(err)
	}
	if one.Output != four.Output {
		t.Errorf("fig4 output differs between jobs=1 and jobs=4:\n--- jobs=1\n%s--- jobs=4\n%s", one.Output, four.Output)
	}
}
