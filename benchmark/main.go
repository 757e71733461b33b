// Command benchmark is the repo's benchmark: six workloads over the
// simulator and the serving stack, drift-corrected end-to-end metrics, and a
// traced run that attributes host time to the layers. See README.md beside
// this file and BENCHMARK.json at the root of the repo.
//
//	go run ./benchmark -workload all -seed 1          every metric, every workload
//	go run ./benchmark -workload serve-hot -seed 3    one workload, result as the last line
//	go run ./benchmark -workload fleet-hot -trace t.json traced run, spans written to t.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	_ "hpmvm/internal/bench/workloads"
)

// processStart is when set-up began, as nearly as the process can tell.
var processStart = time.Now()

// Shortened runs (-quick, and the workload half of a traced run) use fixed
// sizes so that they do not depend on the box's speed.
const (
	tracedRounds = 10
	quickRounds  = 4
	quickCycles  = 12_000_000 // cycle budget of one simulated run under -quick
)

// env is one workload run in this process.
type env struct {
	workload string
	seed     int64
	measure  time.Duration // how long the timed part lasts
	traced   bool
	quick    bool

	start        time.Time // when set-up began
	startBracket float64   // reference bracket taken then
	ref          *refKernel
	rep          *report
	tracer       *tracer // nil unless traced
}

// short reports whether the run is shortened to a fixed size: one timed pass,
// a fixed number of rounds.
func (e *env) short() bool { return e.quick || e.traced }

// rounds is the number of load rounds one stretch of a serve workload runs.
func (e *env) rounds() int {
	switch {
	case e.quick:
		return quickRounds
	case e.traced:
		return tracedRounds
	}
	return int(e.measure / roundLength)
}

// setupDone reports set-up time: everything between the start of the
// process and the first timed unit, scaled by the reference slices taken
// meanwhile. The slices themselves are part of it; they are the same on
// every commit.
func (e *env) setupDone(w refWindow) {
	raw := time.Since(e.start).Seconds()
	e.rep.set("setup_s", correct(raw, w))
	e.rep.logf("setup_s raw %.3f s", raw)
}

// peakRSSMB is the process's maximum resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string // "0", "1", or a file to write the spans to
	quick    bool
	full     bool
	repeat   int
}

func (o options) traced() bool { return o.trace != "" && o.trace != "0" }

// spanFile is where a traced run writes its spans, "" for nowhere.
func (o options) spanFile() string {
	if !o.traced() || o.trace == "1" {
		return ""
	}
	return o.trace
}

// runWorkload runs one workload in this process and returns its report.
func runWorkload(ctx context.Context, o options, start time.Time, out io.Writer) *report {
	e := &env{
		workload: o.workload, seed: o.seed, traced: o.traced(), quick: o.quick,
		measure: time.Duration(o.seconds * float64(time.Second)),
		start:   start, ref: newRefKernel(), rep: newReport(out),
	}
	if e.traced {
		e.tracer = newTracer(o.workload)
	}
	e.ref.refslice() // touch the buffer once before anything is scaled by it
	e.startBracket = e.ref.bracket()

	if strings.HasPrefix(o.workload, "sim-") {
		e.runSimWorkload(ctx)
	} else {
		e.runServeWorkload(ctx)
	}
	if e.traced {
		e.runProbes(ctx)
		rows := e.tracer.selfTimes()
		e.rep.logf("%s: self time by span (traced stretch)", o.workload)
		printSelfTimes(out, rows)
		if path := o.spanFile(); path != "" {
			e.rep.check(e.tracer.write(path, e.rep.values) == nil, "write spans to %s", path)
		}
	}
	p50, ratio := e.ref.noise()
	e.rep.set("ref.slice_ms_p50", p50)
	e.rep.set("ref.slice_max_over_min", ratio)
	e.rep.set("peak_rss_mb", peakRSSMB())
	e.rep.set("failed_frac", e.rep.failedFrac())
	return e.rep
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", `workload to run, or "all" (each in its own process)`)
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 14, "how long one workload measures")
	flag.StringVar(&o.trace, "trace", "0", `"1" makes the traced run and prints the per-layer metrics; a file name also writes the spans there`)
	flag.BoolVar(&o.quick, "quick", false, "smoke run: 1 timed pass of cycle-capped programs, 4 rounds")
	flag.BoolVar(&o.full, "full", false, "print every measured metric in the result line, not only the set the driver asks for")
	flag.IntVar(&o.repeat, "repeat", 1, "with -workload all: run this many full sets and compare them")
	flag.Parse()

	if o.workload == "all" {
		os.Exit(runAll(o, os.Stdout))
	}
	if !knownWorkload(o.workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		os.Exit(2)
	}
	fmt.Printf("benchmark: %s seed=%d seconds=%g trace=%s nproc=%d GOMAXPROCS=%d %s ref_version=%d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), refVersion)
	rep := runWorkload(context.Background(), o, processStart, os.Stdout)
	rep.printValues()

	mode := modeEndToEnd
	switch {
	case o.full:
		mode = modeFull
	case o.traced():
		mode = modePerLayer
	}
	res, err := rep.result(mode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	os.Exit(exitCode(res))
}
