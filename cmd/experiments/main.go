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
//	experiments -exp fig3,fig4            # several, in the given order
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"hpmvm/internal/bench"
	_ "hpmvm/internal/bench/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process exit, so the deferred profile writes
// happen on the error paths too and tests can drive the command.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiments to run: "+strings.Join(bench.ExperimentNames, ", ")+", or all")
	workloads := fs.String("workloads", "", "comma-separated workload filter (default: all)")
	reps := fs.Int("reps", 3, "repetitions for timing experiments")
	seed := fs.Int64("seed", 1, "base PRNG seed")
	jobs := fs.Int("jobs", 0, "parallel runs (0 = GOMAXPROCS); output is byte-identical for any value")
	benchJSON := fs.String("bench-json", "", "write per-experiment run counts, wall clock and simulated cycles as JSON to this file")
	metricsJSON := fs.String("metrics-json", "", "run the observability sweep and write per-workload counter/phase snapshots to this file")
	traceFile := fs.String("trace", "", "run the observability sweep and write per-workload event traces to this file")
	progress := fs.Bool("progress", true, "live progress line on stderr")
	list := fs.Bool("list", false, "list registered workloads and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile (after final GC) to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(what string, err error) int {
		fmt.Fprintf(stderr, "experiments: %s: %v\n", what, err)
		return 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail("cpuprofile", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail("cpuprofile", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(stderr, "wrote %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(stderr, "experiments: memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "experiments: memprofile: %v\n", err)
			}
			f.Close()
			fmt.Fprintf(stderr, "wrote %s\n", path)
		}()
	}

	if *list {
		for _, n := range bench.Names() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	opt := bench.ExpOptions{Reps: *reps, Seed: *seed, Jobs: *jobs}
	if *workloads != "" {
		opt.Workloads = strings.Split(*workloads, ",")
	}

	names := strings.Split(*exp, ",")
	switch *exp {
	case "all":
		names = bench.ExperimentNames
	case "none":
		// Observability-sweep-only mode: no experiments.
		names = nil
	}
	// Every name is checked before the first run, so a misspelt one
	// fails without printing the tables before it.
	for _, name := range names {
		if !slices.Contains(bench.ExperimentNames, name) {
			return fail(name, fmt.Errorf("unknown experiment (have %s)", strings.Join(bench.ExperimentNames, ", ")))
		}
	}

	var record []bench.ExpRun
	for _, name := range names {
		runOpt := opt
		if *progress {
			name := name
			start := time.Now()
			runOpt.Progress = func(done, total int, label string) {
				fmt.Fprintf(stderr, "\r\x1b[K[%s] %d/%d runs  %s  (%s)",
					name, done, total, label, time.Since(start).Round(time.Second))
			}
		}
		res, err := bench.RunExperiment(name, runOpt)
		if *progress {
			fmt.Fprint(stderr, "\r\x1b[K")
		}
		if err != nil {
			return fail(name, err)
		}
		fmt.Fprintln(stdout, res.Output)
		// speedup is summed per-run wall clock over actual wall clock:
		// accurate when jobs <= cores, inflated by CPU time-slicing when
		// the pool oversubscribes the machine.
		fmt.Fprintf(stdout, "[%s completed in %v — %d runs, %v run time, jobs=%d, speedup %.2fx, %.1f Mcycles/s]\n\n",
			name, res.Elapsed.Round(time.Millisecond), res.Runs,
			res.RunTime.Round(time.Millisecond), res.Jobs, res.Speedup(), res.McyclesPerSec())
		record = append(record, res)
	}

	if *benchJSON != "" {
		if err := writeFile(stderr, *benchJSON, func(f *os.File) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(record)
		}); err != nil {
			return fail("bench-json", err)
		}
	}

	if *metricsJSON != "" || *traceFile != "" {
		if err := runObsSweep(stderr, opt, *progress, *metricsJSON, *traceFile); err != nil {
			return fail("obs sweep", err)
		}
	}
	return 0
}

// runObsSweep executes the instrumented workload sweep and writes the
// requested JSON exports.
func runObsSweep(stderr io.Writer, opt bench.ExpOptions, progress bool, metricsPath, tracePath string) error {
	if progress {
		start := time.Now()
		opt.Progress = func(done, total int, label string) {
			fmt.Fprintf(stderr, "\r\x1b[K[obs] %d/%d runs  %s  (%s)",
				done, total, label, time.Since(start).Round(time.Second))
		}
		defer fmt.Fprint(stderr, "\r\x1b[K")
	}
	recs, err := bench.ObsSweep(opt)
	if err != nil {
		return err
	}
	if metricsPath != "" {
		if err := writeFile(stderr, metricsPath, func(f *os.File) error {
			return bench.WriteObsMetricsJSON(f, recs)
		}); err != nil {
			return err
		}
	}
	if tracePath != "" {
		if err := writeFile(stderr, tracePath, func(f *os.File) error {
			return bench.WriteObsTraceJSON(f, recs)
		}); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path (and its directory), lets emit fill it, and
// reports the path on stderr once the close succeeded.
func writeFile(stderr io.Writer, path string, emit func(f *os.File) error) error {
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
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}
