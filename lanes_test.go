// Lane keystone: an exact lane pass (bench.RunLanes with Sampling nil)
// is the Figure 2 grid's separate runs, multiplexed — not an
// approximation of them.
package hpmvm_test

import (
	"flag"
	"fmt"
	"testing"

	"hpmvm/internal/bench"
)

var lanesAll = flag.Bool("lanes-all", false, "TestLanesMatchSeparateRuns: every registered workload instead of jess, antlr and compress")

// TestLanesMatchSeparateRuns holds every exact lane to its separate
// monitored run at the lane's rep seed: equal cycles, monitor.Stats and
// PEBS unit stats, on the Figure 2 grid (250, 500, 1000 and auto × 3
// reps). The pass's baseline must equal the separate unmonitored run,
// so the lanes left the shared stream alone. By default it runs jess
// (at 250 its polls once fell behind a mid-chunk charge), antlr (auto
// once read a sample too many) and compress; `make verify-lanes` runs
// all 16 workloads.
func TestLanesMatchSeparateRuns(t *testing.T) {
	if len(goldenRaceSubset) > 0 {
		t.Skip("the keystone runs workloads outside the race lane's subset")
	}
	names := []string{"jess", "antlr", "compress"}
	if *lanesAll {
		names = bench.Names()
	}
	const reps = 3
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := bench.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			base := bench.RunConfig{Seed: 1}
			pass, err := bench.RunLanes(b, base, bench.Fig2Intervals, reps)
			if err != nil {
				t.Fatal(err)
			}
			plain, _, err := bench.Run(b, base)
			if err != nil {
				t.Fatal(err)
			}
			if pass.Base != float64(plain.Cycles) || pass.Cycles != plain.Cycles {
				t.Errorf("base: pass %.0f cycles, separate run %d", pass.Base, plain.Cycles)
			}
			for j, iv := range bench.Fig2Intervals {
				for r := 0; r < reps; r++ {
					cfg := base
					cfg.Monitoring, cfg.Interval, cfg.Seed = true, iv, base.Seed+int64(r)*7919
					res, sys, err := bench.Run(b, cfg)
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("iv=%s rep %d", bench.Fig2Labels[j], r)
					ln := pass.Lanes[j][r]
					if ln.Cycles != float64(res.Cycles) {
						t.Errorf("%s: lane %.0f cycles, separate run %d (%+.0f)", at, ln.Cycles, res.Cycles, ln.Cycles-float64(res.Cycles))
					}
					if ln.Monitor != res.MonitorStats {
						t.Errorf("%s: monitor stats\n lane     %+v\n separate %+v", at, ln.Monitor, res.MonitorStats)
					}
					if want := sys.Unit.Stats(); ln.PEBS != want {
						t.Errorf("%s: PEBS stats\n lane     %+v\n separate %+v", at, ln.PEBS, want)
					}
				}
			}
		})
	}
}
