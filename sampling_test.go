// Sampled-simulation keystone tests: pin the two-lane CPU's region
// scheduler against the cycle-exact simulation (DESIGN.md §12).
//
// The load-bearing property is functional warming: during fast-forward
// the hierarchy keeps evolving its tag state (and delivering hardware
// events) while charging a flat cost, so a detailed region entered from
// a fast-forwarded machine sees exactly the cache/TLB state the
// cycle-exact run would have at the same instruction. The tests here
// verify that property end to end, region by region, and calibrate the
// estimator's error bound.
package hpmvm_test

import (
	"fmt"
	"math"
	"testing"

	"hpmvm/internal/bench"
	_ "hpmvm/internal/bench/workloads"
	"hpmvm/internal/vm/runtime"
)

// TestSampledRegionsMatchExact is the keystone: every measured region
// of a sampled run, reached through functional fast-forward, must
// report metrics EXACTLY identical to the same instruction window of a
// cycle-exact run. Not approximately — identically: the schedule is a
// pure function of the instruction stream, functional warming evolves
// the tag state through the same probe/fill decisions as detailed
// accesses, and services always run detailed, so the detailed lane's
// cycle and miss deltas over any window are independent of how the
// machine got there.
func TestSampledRegionsMatchExact(t *testing.T) {
	for _, name := range []string{"fop", "compress"} {
		t.Run(name, func(t *testing.T) {
			b, err := bench.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			scfg := runtime.DefaultSamplingConfig()
			_, ssys, err := bench.Run(b, bench.RunConfig{Seed: 1, Sampling: &scfg})
			if err != nil {
				t.Fatal(err)
			}
			regions := ssys.VM.Sampler().Regions()
			if len(regions) < 5 {
				t.Fatalf("only %d measured regions — workload too short to pin anything", len(regions))
			}

			// Walk a cycle-exact machine to each region's instruction
			// boundaries and compare the window deltas.
			prog, esys, err := bench.BuildSystem(b, bench.RunConfig{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			esys.Hier().Flush()
			esys.Hier().ResetStats()
			if err := esys.VM.Start(prog.Entry); err != nil {
				t.Fatal(err)
			}
			for i, r := range regions {
				if err := esys.VM.RunToInstret(r.StartInstret); err != nil {
					t.Fatal(err)
				}
				c0, s0 := esys.VM.CPU.Cycles(), esys.Hier().Stats()
				if err := esys.VM.RunToInstret(r.StartInstret + r.Instret); err != nil {
					t.Fatal(err)
				}
				c1, s1 := esys.VM.CPU.Cycles(), esys.Hier().Stats()
				if got := esys.VM.CPU.Instret(); got != r.StartInstret+r.Instret {
					t.Fatalf("region %d: exact machine stopped at instret %d, want %d", i, got, r.StartInstret+r.Instret)
				}
				exact := [5]uint64{c1 - c0, s1.Accesses - s0.Accesses,
					s1.L1Misses - s0.L1Misses, s1.L2Misses - s0.L2Misses, s1.TLBMisses - s0.TLBMisses}
				sampled := [5]uint64{r.Cycles, r.Accesses, r.L1Misses, r.L2Misses, r.TLBMisses}
				if exact != sampled {
					t.Errorf("region %d (instret %d+%d): sampled [cyc acc l1 l2 tlb] = %v, exact window = %v",
						i, r.StartInstret, r.Instret, sampled, exact)
				}
			}
		})
	}
}

// TestSamplingRegionsFlatCostInvariant pins that the flat fast-forward
// charge distorts only the sampled run's own clock, never the measured
// regions: the schedule is instruction-based and the regions are
// measured in the detailed lane, so a 25x different FlatMemCycles must
// reproduce every region byte for byte.
func TestSamplingRegionsFlatCostInvariant(t *testing.T) {
	b, err := bench.Lookup("fop")
	if err != nil {
		t.Fatal(err)
	}
	cfgA := runtime.DefaultSamplingConfig()
	cfgB := runtime.DefaultSamplingConfig()
	cfgB.FlatMemCycles = 50
	_, sysA, err := bench.Run(b, bench.RunConfig{Seed: 1, Sampling: &cfgA})
	if err != nil {
		t.Fatal(err)
	}
	_, sysB, err := bench.Run(b, bench.RunConfig{Seed: 1, Sampling: &cfgB})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := sysA.VM.Sampler().Regions(), sysB.VM.Sampler().Regions()
	if len(ra) != len(rb) {
		t.Fatalf("region counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Errorf("region %d differs across flat costs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

// TestSamplingAllMeasureMatchesExact pins the degenerate schedule that
// never fast-forwards (the measured region covers the whole run): it
// must be byte-identical to the exact simulation — cycles, instructions,
// cache statistics and program results.
func TestSamplingAllMeasureMatchesExact(t *testing.T) {
	for _, name := range []string{"fop", "jess"} {
		t.Run(name, func(t *testing.T) {
			b, err := bench.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			exact, _, err := bench.Run(b, bench.RunConfig{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			all := runtime.SamplingConfig{FFInstrs: 1, WarmupInstrs: 1, MeasureInstrs: 1 << 62, FlatMemCycles: 2}
			sampled, _, err := bench.Run(b, bench.RunConfig{Seed: 1, Sampling: &all})
			if err != nil {
				t.Fatal(err)
			}
			if sampled.Cycles != exact.Cycles || sampled.Instret != exact.Instret {
				t.Errorf("all-measure run diverged: cycles %d vs %d, instret %d vs %d",
					sampled.Cycles, exact.Cycles, sampled.Instret, exact.Instret)
			}
			if sampled.Cache != exact.Cache {
				t.Errorf("all-measure cache stats diverged:\nsampled %+v\nexact   %+v", sampled.Cache, exact.Cache)
			}
			// The estimate extrapolates over the 1-instruction warmup
			// slice outside the region, so it is near-exact, not exact.
			if est := sampled.Estimated; est == nil {
				t.Error("sampled run carries no estimate")
			} else if math.Abs(est.Cycles/float64(exact.Cycles)-1) > 1e-4 {
				t.Errorf("all-measure estimate %.1f, want exact %d within 0.01%%", est.Cycles, exact.Cycles)
			}
		})
	}
}

// TestSamplingCalibration is the calibration sweep: on a 4-workload
// subset spanning the cache behaviour extremes (compress: tight loops;
// jess: allocation-heavy; jack: phase-structured, the worst case under
// the default schedule; db: pointer-chasing), each workload's
// *calibrated* schedule
// (bench.CalibratedSampling — the default for all but jack) must hold
// its full-run cycle estimate within its documented bound of the
// cycle-exact simulation, and the sampled run must retire the
// identical architectural instruction stream. jack's tighter schedule
// carries a tighter bound: that is what the calibration table buys.
func TestSamplingCalibration(t *testing.T) {
	bounds := map[string]float64{ // percent
		"compress": 2.0, "jess": 2.0, "db": 2.0,
		"jack": 0.5, // calibration-table entry; see bench/calibration.go
	}
	for _, name := range []string{"compress", "jess", "jack", "db"} {
		t.Run(name, func(t *testing.T) {
			bound := bounds[name]
			scfg := bench.CalibratedSampling(name)
			b, err := bench.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			exact, _, err := bench.Run(b, bench.RunConfig{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			sampled, _, err := bench.Run(b, bench.RunConfig{Seed: 1, Sampling: &scfg})
			if err != nil {
				t.Fatal(err)
			}
			if sampled.Instret != exact.Instret {
				t.Errorf("sampled run retired %d instructions, exact %d — fast-forward changed the architectural stream",
					sampled.Instret, exact.Instret)
			}
			est := sampled.Estimated
			if est == nil {
				t.Fatal("sampled run carries no estimate")
			}
			errPct := 100 * (est.Cycles/float64(exact.Cycles) - 1)
			t.Logf("%s: est %.0f vs exact %d = %+.2f%% (%d regions, %.1f%% measured)",
				name, est.Cycles, exact.Cycles, errPct, est.Regions,
				100*float64(est.MeasuredInstret)/float64(est.TotalInstret))
			if math.Abs(errPct) > bound {
				t.Errorf("cycle estimate off by %+.2f%%, bound %.1f%%", errPct, bound)
			}
			if est.CyclesLo < float64(est.ServiceCycles) {
				t.Errorf("CyclesLo %.0f below the exactly measured service cycles %d", est.CyclesLo, est.ServiceCycles)
			}
			if est.CyclesLo > est.Cycles || est.CyclesHi < est.Cycles {
				t.Errorf("confidence interval [%.0f, %.0f] does not bracket the estimate %.0f",
					est.CyclesLo, est.CyclesHi, est.Cycles)
			}
		})
	}
}

// TestSamplingFig5Path pins the sampled estimator along Figure 5's
// heap-size axis: at the extreme heap factors, compress's calibrated
// baseline estimate must stay within the documented 2% bound of the
// exact run. Heap sizing changes GC pressure and therefore the
// service-cycle share, so this covers estimator behaviour the fixed 4x
// heap of TestSamplingCalibration cannot.
func TestSamplingFig5Path(t *testing.T) {
	b, err := bench.Lookup("compress")
	if err != nil {
		t.Fatal(err)
	}
	scfg := bench.CalibratedSampling("compress")
	for _, factor := range []float64{1, 4} {
		t.Run(fmt.Sprintf("%gx", factor), func(t *testing.T) {
			exact, _, err := bench.Run(b, bench.RunConfig{HeapFactor: factor, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			sampled, _, err := bench.Run(b, bench.RunConfig{HeapFactor: factor, Seed: 1, Sampling: &scfg})
			if err != nil {
				t.Fatal(err)
			}
			if sampled.Estimated == nil {
				t.Fatal("sampled run carries no estimate")
			}
			errPct := 100 * (sampled.Estimated.Cycles/float64(exact.Cycles) - 1)
			t.Logf("%gx: base %+.2f%%", factor, errPct)
			if math.Abs(errPct) > 2 {
				t.Errorf("baseline estimate off by %+.2f%% at heap %gx", errPct, factor)
			}
		})
	}
}

// TestSampledPassEventDelivery pins functional warming's listener
// contract: a PEBS unit attached to a sampled run must observe the full
// hardware event stream — fast-forwarded accesses included — not just
// the measured fraction. Without it, sample counts (and everything the
// monitor derives from them) would be biased by the measured fraction.
func TestSampledPassEventDelivery(t *testing.T) {
	b, err := bench.Lookup("fop")
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := bench.Run(b, bench.RunConfig{Seed: 1, Monitoring: true, Interval: 500})
	if err != nil {
		t.Fatal(err)
	}
	scfg := runtime.DefaultSamplingConfig()
	sampled, _, err := bench.Run(b, bench.RunConfig{Seed: 1, Monitoring: true, Interval: 500, Sampling: &scfg})
	if err != nil {
		t.Fatal(err)
	}
	// The architectural stream is identical and warming fires the same
	// events at the same points, so the unit draws the same PRNG
	// sequence and takes the same samples.
	if sampled.SamplesTaken != exact.SamplesTaken {
		t.Errorf("sampled run took %d samples, exact %d — fast-forward is dropping hardware events",
			sampled.SamplesTaken, exact.SamplesTaken)
	}
}
