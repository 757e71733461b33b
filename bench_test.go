// Package hpmvm's top-level benchmarks regenerate the paper's tables
// and figures as Go benchmarks (one per table/figure, §6 of the
// paper). Each benchmark executes a reduced single-repetition version
// of the corresponding experiment and reports the headline quantities
// via b.ReportMetric; cmd/experiments runs the full-fidelity versions.
// The metrics are simulated quantities (cycles, misses, pairs): host
// time is measured by benchmark/ alone, as alternating parent/change
// pairs (benchmark/README.md).
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig4 -benchtime=1x
package hpmvm_test

import (
	"testing"

	"hpmvm/internal/bench"
	_ "hpmvm/internal/bench/workloads"
	"hpmvm/internal/core"
)

// quickOpts restricts experiments to a representative workload subset
// so a full -bench=. sweep stays tractable; pass -timeout accordingly
// for the complete set via cmd/experiments.
func quickOpts() bench.ExpOptions {
	return bench.ExpOptions{
		Workloads: []string{"db", "compress", "javac", "hsqldb"},
		Reps:      1,
		Seed:      1,
	}
}

// BenchmarkTable2SpaceOverhead regenerates Table 2 (machine-code map
// space overhead) and reports aggregate map sizes.
func BenchmarkTable2SpaceOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2Data(bench.ExpOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		var code, gcm, mcm uint64
		for _, r := range rows {
			code += r.MachineCode
			gcm += r.GCMaps
			mcm += r.MCMaps
		}
		b.ReportMetric(float64(code), "codeKB")
		b.ReportMetric(float64(gcm), "gcMapKB")
		b.ReportMetric(float64(mcm), "mcMapKB")
		b.ReportMetric(float64(mcm)/float64(gcm), "mc/gc-ratio")
	}
}

// BenchmarkFig2SamplingOverhead regenerates Figure 2 (execution-time
// overhead of event sampling) on the quick subset and reports the mean
// overhead at the paper's auto interval.
func BenchmarkFig2SamplingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig2Data(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		var sum25, sumAuto float64
		for _, r := range rows {
			sum25 += r.Overhead[0]
			sumAuto += r.Overhead[len(r.Overhead)-1]
		}
		b.ReportMetric(100*sum25/float64(len(rows)), "overhead25K-%")
		b.ReportMetric(100*sumAuto/float64(len(rows)), "overheadAuto-%")
	}
}

// BenchmarkFig3CoallocCounts regenerates Figure 3 (number of
// co-allocated objects per sampling interval).
func BenchmarkFig3CoallocCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig3Data(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Program == "db" {
				b.ReportMetric(float64(r.Pairs[0]), "db-pairs-25K")
				b.ReportMetric(float64(r.Pairs[2]), "db-pairs-100K")
			}
		}
	}
}

// BenchmarkFig4MissReduction regenerates Figure 4 (L1 miss reduction
// with co-allocation, heap 4x).
func BenchmarkFig4MissReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig4Data(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Program == "db" {
				b.ReportMetric(100*r.Reduction, "db-L1-reduction-%")
			}
			if r.Program == "compress" {
				b.ReportMetric(float64(r.Pairs), "compress-pairs")
			}
		}
	}
}

// BenchmarkFig5ExecTime regenerates Figure 5 (normalized execution
// time across heap sizes) for db only (the full grid runs in
// cmd/experiments).
func BenchmarkFig5ExecTime(b *testing.B) {
	opts := bench.ExpOptions{Workloads: []string{"db"}, Reps: 1, Seed: 1}
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig5Data(opts)
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		b.ReportMetric(r.Normalized[0], "db-1x-normtime")
		b.ReportMetric(r.Normalized[len(r.Normalized)-1], "db-4x-normtime")
	}
}

// BenchmarkFig6GenCopyVsGenMS regenerates Figure 6 (db: GenCopy vs
// GenMS with co-allocation across heap sizes).
func BenchmarkFig6GenCopyVsGenMS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig6Data(bench.ExpOptions{Reps: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		first, last := rows[0], rows[len(rows)-1]
		b.ReportMetric(100*(1-first.GenMSCo/first.GenCopy), "co-vs-gencopy-1x-%")
		b.ReportMetric(100*(1-last.GenMSCo/last.GenCopy), "co-vs-gencopy-4x-%")
	}
}

// BenchmarkFig7Feedback regenerates Figure 7 (db: cumulative misses and
// miss rate over time for String::value).
func BenchmarkFig7Feedback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		baseCum, coCum, rate, _, err := bench.Fig7Data(bench.ExpOptions{Reps: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(baseCum.Last(), "baseline-cum-misses")
		b.ReportMetric(coCum.Last(), "coalloc-cum-misses")
		b.ReportMetric(float64(rate.Len()), "periods")
	}
}

// BenchmarkFig8Revert regenerates Figure 8 (online detection of a poor
// placement decision and revert).
func BenchmarkFig8Revert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, events, err := bench.Fig8Data(bench.ExpOptions{Reps: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		reverts := 0
		for _, e := range events {
			if containsRevert(e) {
				reverts++
			}
		}
		b.ReportMetric(float64(reverts), "reverts")
		b.ReportMetric(float64(series.Len()), "periods")
	}
}

func containsRevert(s string) bool {
	for i := 0; i+6 <= len(s); i++ {
		if s[i:i+6] == "revert" {
			return true
		}
	}
	return false
}

// BenchmarkWorkloads runs each registered workload once at the default
// configuration (GenMS, heap 4x, no monitoring) and reports simulated
// cycles — the baseline execution-time table every figure normalizes
// against.
func BenchmarkWorkloads(b *testing.B) {
	for _, name := range bench.Names() {
		name := name
		builder, _ := bench.Get(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, _, err := bench.Run(builder, bench.RunConfig{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "simcycles")
				b.ReportMetric(float64(res.Cache.L1Misses), "L1misses")
			}
		})
	}
}

// BenchmarkCollectors compares GenMS and GenCopy end to end on db.
func BenchmarkCollectors(b *testing.B) {
	builder, _ := bench.Get("db")
	for _, kind := range []core.CollectorKind{core.GenMS, core.GenCopy} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, _, err := bench.Run(builder, bench.RunConfig{Collector: kind, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "simcycles")
			}
		})
	}
}
