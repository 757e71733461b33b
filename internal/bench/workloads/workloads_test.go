package workloads

import (
	"testing"

	"hpmvm/internal/bench"
	"hpmvm/internal/coalloc"
	"hpmvm/internal/core"
)

// runOne executes a registered workload under cfg and returns the
// result (failing the test on any error, including an Expected
// mismatch inside the runner).
func runOne(t *testing.T, name string, cfg bench.RunConfig) *bench.Result {
	t.Helper()
	b, ok := bench.Get(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	res, _, err := bench.Run(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWorkloadsCorrectAcrossConfigs runs every registered workload
// under four configurations (baseline compiler, optimizing compiler,
// monitoring, co-allocation) and checks that the program's result log
// is identical everywhere — the VM's end-to-end differential test.
func TestWorkloadsCorrectAcrossConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep in -short mode")
	}
	for _, name := range bench.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			base := runOne(t, name, bench.RunConfig{OptLevel: 1})
			ref := base.Results
			for label, cfg := range map[string]bench.RunConfig{
				"opt2":    {OptLevel: 2},
				"monitor": {Monitoring: true, Interval: 10_000},
				"coalloc": {Coalloc: true, Interval: 10_000},
				"gencopy": {Collector: core.GenCopy},
			} {
				res := runOne(t, name, cfg)
				if len(res.Results) != len(ref) {
					t.Fatalf("%s: result count %d vs %d", label, len(res.Results), len(ref))
				}
				for i := range ref {
					if res.Results[i] != ref[i] {
						t.Fatalf("%s: result[%d] = %d, want %d", label, i, res.Results[i], ref[i])
					}
				}
				if res.MinorGCs == 0 {
					t.Logf("%s: note: no minor GC occurred", label)
				}
			}
		})
	}
}

func TestDBRunsAndChecks(t *testing.T) {
	res := runOne(t, "db", bench.RunConfig{})
	t.Logf("db: cycles=%d instret=%d L1miss=%d minor=%d major=%d",
		res.Cycles, res.Instret, res.Cache.L1Misses, res.MinorGCs, res.MajorGCs)
	if res.MinorGCs == 0 {
		t.Error("db: expected minor GCs")
	}
}

func TestDBCoallocationReducesMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	base := runOne(t, "db", bench.RunConfig{})
	co := runOne(t, "db", bench.RunConfig{Coalloc: true})
	t.Logf("db baseline: cycles=%d L1=%d", base.Cycles, base.Cache.L1Misses)
	t.Logf("db coalloc:  cycles=%d L1=%d pairs=%d", co.Cycles, co.Cache.L1Misses, co.CoallocPairs)
	if co.CoallocPairs == 0 {
		t.Fatal("expected co-allocated pairs")
	}
	if co.Cache.L1Misses >= base.Cache.L1Misses {
		t.Errorf("co-allocation did not reduce L1 misses: %d vs %d", co.Cache.L1Misses, base.Cache.L1Misses)
	}
}

// TestFullSystemDeterminism runs db with monitoring and co-allocation
// twice under the same seed: every counter must match bit for bit —
// the property all experiment deltas in EXPERIMENTS.md rest on.
func TestFullSystemDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	cfg := bench.RunConfig{Coalloc: true, Seed: 99}
	a := runOne(t, "db", cfg)
	b := runOne(t, "db", cfg)
	if a.Cycles != b.Cycles {
		t.Errorf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.Cache.L1Misses != b.Cache.L1Misses || a.Cache.TLBMisses != b.Cache.TLBMisses {
		t.Errorf("cache stats differ: %+v vs %+v", a.Cache, b.Cache)
	}
	if a.CoallocPairs != b.CoallocPairs {
		t.Errorf("pairs differ: %d vs %d", a.CoallocPairs, b.CoallocPairs)
	}
	if a.MonitorStats.SamplesDecoded != b.MonitorStats.SamplesDecoded {
		t.Errorf("samples differ: %d vs %d",
			a.MonitorStats.SamplesDecoded, b.MonitorStats.SamplesDecoded)
	}
}

// TestRankedCandidatesOnDB checks the §5.4 ranked-candidate extension
// end to end: results stay correct and at least as many pairs are
// placed as with the single-hottest-field policy.
func TestRankedCandidatesOnDB(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	plain := runOne(t, "db", bench.RunConfig{Coalloc: true, Seed: 1})
	ranked := runOne(t, "db", bench.RunConfig{Coalloc: true, CoallocConfig: &coalloc.Config{Ranked: true}, Seed: 1})
	t.Logf("plain pairs=%d cycles=%d; ranked pairs=%d cycles=%d",
		plain.CoallocPairs, plain.Cycles, ranked.CoallocPairs, ranked.Cycles)
	if ranked.CoallocPairs < plain.CoallocPairs {
		t.Errorf("ranked candidates placed fewer pairs: %d vs %d",
			ranked.CoallocPairs, plain.CoallocPairs)
	}
}
