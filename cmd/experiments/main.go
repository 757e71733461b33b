// Command experiments regenerates the tables and figures of the
// paper's evaluation (§6). Each experiment prints the same rows or
// series the paper reports; EXPERIMENTS.md records the comparison.
//
// Runs fan out across a worker pool (the parallel experiment engine in
// internal/bench); every run owns its seed and its whole simulated
// machine, so the printed tables are byte-identical for any -jobs
// value.
//
// Usage:
//
//	experiments -exp fig4                 # one experiment
//	experiments -exp all                  # everything (slow)
//	experiments -exp fig5 -workloads db   # restrict the benchmark set
//	experiments -exp fig2 -reps 1         # fewer repetitions
//	experiments -exp all -jobs 8          # widen the worker pool
//	experiments -exp all -bench-json results/BENCH_experiments.json
//	experiments -exp none -metrics-json m.json -trace t.json
//	                                      # observability sweep only
//
// -metrics-json and -trace run an additional instrumented sweep (each
// workload once with the full monitoring + co-allocation stack and the
// observability layer attached) and write the per-workload counter
// snapshots and event traces as JSON. The sweep is additive: it never
// changes the experiments' stdout, and the observer is passive, so the
// captured runs' simulated cycle counts match unobserved runs exactly.
// -exp none skips the experiments, running only the sweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hpmvm/internal/bench"
	_ "hpmvm/internal/bench/workloads"
)

// expRecord is one experiment's perf accounting in the -bench-json
// output.
type expRecord struct {
	Name            string  `json:"name"`
	Runs            int     `json:"runs"`
	WallSeconds     float64 `json:"wall_seconds"`
	RunSeconds      float64 `json:"run_seconds"` // summed per-run wall clock
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	// Simulation throughput: total simulated volume over the summed
	// per-run wall clock (serial-equivalent, independent of -jobs).
	SimMcycles    float64 `json:"sim_mcycles"`
	SimMinstr     float64 `json:"sim_minstr"`
	McyclesPerSec float64 `json:"mcycles_per_sec"`
	MinstrPerSec  float64 `json:"minstr_per_sec"`
	// Metrics carries experiment-published headline numbers (e.g. the
	// warmstart experiment's warm_start_speedup).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchReport is the machine-readable perf record -bench-json writes.
type benchReport struct {
	Timestamp        string      `json:"timestamp"`
	GoMaxProcs       int         `json:"gomaxprocs"`
	Jobs             int         `json:"jobs"`
	Note             string      `json:"note"`
	Experiments      []expRecord `json:"experiments"`
	TotalRuns        int         `json:"total_runs"`
	TotalWallSeconds float64     `json:"total_wall_seconds"`
	TotalRunSeconds  float64     `json:"total_run_seconds"`
	SpeedupVsSerial  float64     `json:"speedup_vs_serial"`
	TotalSimMcycles  float64     `json:"total_sim_mcycles"`
	McyclesPerSec    float64     `json:"mcycles_per_sec"`
	MinstrPerSec     float64     `json:"minstr_per_sec"`
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(bench.ExperimentNames, ", ")+", or all")
	workloads := flag.String("workloads", "", "comma-separated workload filter (default: all)")
	reps := flag.Int("reps", 3, "repetitions for timing experiments")
	seed := flag.Int64("seed", 1, "base PRNG seed")
	jobs := flag.Int("jobs", 0, "parallel runs (0 = GOMAXPROCS); output is byte-identical for any value")
	benchJSON := flag.String("bench-json", "", "write per-experiment wall-clock and speedup JSON to this file")
	metricsJSON := flag.String("metrics-json", "", "run the observability sweep and write per-workload counter/phase snapshots to this file")
	traceFile := flag.String("trace", "", "run the observability sweep and write per-workload event traces to this file")
	progress := flag.Bool("progress", true, "live progress line on stderr")
	list := flag.Bool("list", false, "list registered workloads and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (after final GC) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}()
	}

	if *list {
		for _, n := range bench.Names() {
			fmt.Println(n)
		}
		return
	}

	opt := bench.ExpOptions{Reps: *reps, Seed: *seed, Jobs: *jobs}
	if *workloads != "" {
		opt.Workloads = strings.Split(*workloads, ",")
	}

	names := []string{*exp}
	switch *exp {
	case "all":
		names = bench.ExperimentNames
	case "none":
		// Observability-sweep-only mode: no experiments.
		names = nil
	}

	var totalSimCycles, totalSimInstret uint64
	report := benchReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Note: "speedup_vs_serial = run_seconds/wall_seconds (summed per-run wall clock over " +
			"actual wall clock); accurate when jobs <= cores, inflated by CPU time-slicing " +
			"when the pool oversubscribes the machine",
	}
	for _, name := range names {
		runOpt := opt
		if *progress {
			name := name
			start := time.Now()
			runOpt.Progress = func(done, total int, label string) {
				fmt.Fprintf(os.Stderr, "\r\x1b[K[%s] %d/%d runs  %s  (%s)",
					name, done, total, label, time.Since(start).Round(time.Second))
			}
		}
		res, err := bench.RunExperimentFull(name, runOpt)
		if *progress {
			fmt.Fprint(os.Stderr, "\r\x1b[K")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(res.Output)
		// Go-benchmark format lines for the perf-data pipeline
		// (BenchmarkFig2/<workload> ... Mcycles/s), alongside the JSON.
		for _, line := range res.BenchLines {
			fmt.Println(line)
		}
		if len(res.BenchLines) > 0 {
			fmt.Println()
		}
		fmt.Printf("[%s completed in %v — %d runs, %v run time, jobs=%d, speedup %.2fx, %.1f Mcycles/s]\n\n",
			name, res.Elapsed.Round(time.Millisecond), res.Runs,
			res.RunTime.Round(time.Millisecond), res.Jobs, res.Speedup(), res.McyclesPerSec())

		report.Jobs = res.Jobs
		report.Experiments = append(report.Experiments, expRecord{
			Name:            name,
			Runs:            res.Runs,
			WallSeconds:     res.Elapsed.Seconds(),
			RunSeconds:      res.RunTime.Seconds(),
			SpeedupVsSerial: res.Speedup(),
			SimMcycles:      float64(res.SimCycles) / 1e6,
			SimMinstr:       float64(res.SimInstret) / 1e6,
			McyclesPerSec:   res.McyclesPerSec(),
			MinstrPerSec:    res.MinstrPerSec(),
			Metrics:         res.Metrics,
		})
		report.TotalRuns += res.Runs
		report.TotalWallSeconds += res.Elapsed.Seconds()
		report.TotalRunSeconds += res.RunTime.Seconds()
		totalSimCycles += res.SimCycles
		totalSimInstret += res.SimInstret
	}
	if report.TotalWallSeconds > 0 {
		report.SpeedupVsSerial = report.TotalRunSeconds / report.TotalWallSeconds
	}
	report.TotalSimMcycles = float64(totalSimCycles) / 1e6
	if report.TotalRunSeconds > 0 {
		report.McyclesPerSec = float64(totalSimCycles) / 1e6 / report.TotalRunSeconds
		report.MinstrPerSec = float64(totalSimInstret) / 1e6 / report.TotalRunSeconds
	}

	if *benchJSON != "" {
		if err := writeReport(*benchJSON, report); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bench-json: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *benchJSON)
	}

	if *metricsJSON != "" || *traceFile != "" {
		if err := runObsSweep(opt, *progress, *metricsJSON, *traceFile); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: obs sweep: %v\n", err)
			os.Exit(1)
		}
	}
}

// runObsSweep executes the instrumented workload sweep and writes the
// requested JSON exports.
func runObsSweep(opt bench.ExpOptions, progress bool, metricsPath, tracePath string) error {
	if progress {
		start := time.Now()
		opt.Progress = func(done, total int, label string) {
			fmt.Fprintf(os.Stderr, "\r\x1b[K[obs] %d/%d runs  %s  (%s)",
				done, total, label, time.Since(start).Round(time.Second))
		}
		defer fmt.Fprint(os.Stderr, "\r\x1b[K")
	}
	recs, err := bench.ObsSweep(opt)
	if err != nil {
		return err
	}
	write := func(path string, emit func(f *os.File) error) error {
		if dir := filepath.Dir(path); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		return nil
	}
	if metricsPath != "" {
		if err := write(metricsPath, func(f *os.File) error {
			return bench.WriteObsMetricsJSON(f, recs)
		}); err != nil {
			return err
		}
	}
	if tracePath != "" {
		if err := write(tracePath, func(f *os.File) error {
			return bench.WriteObsTraceJSON(f, recs)
		}); err != nil {
			return err
		}
	}
	return nil
}

func writeReport(path string, report benchReport) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
