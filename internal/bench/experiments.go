package bench

import (
	"fmt"
	"strings"
	"time"

	"hpmvm/internal/coalloc"
	"hpmvm/internal/core"
	"hpmvm/internal/monitor"
	"hpmvm/internal/vm/mcmap"
)

// This file regenerates every table and figure of the paper's
// evaluation (§6). Each experiment is one function from options to its
// rendered text: it schedules its runs on the experiment's engine,
// waits, and renders. cmd/experiments prints the text; EXPERIMENTS.md
// records paper-vs-measured values.

// experiments is the one table of experiments, in the order -exp all
// runs them: RunExperiment dispatches through it and ExperimentNames
// lists it.
var experiments = []struct {
	name string
	run  func(ExpOptions) (string, error)
}{
	{"table1", table1},
	{"table2", table2},
	{"fig2", fig2},
	{"fig3", fig3},
	{"fig4", fig4},
	{"fig5", fig5},
	{"fig6", fig6},
	{"fig7", fig7},
	{"fig8", fig8},
	{"ablations", ablations},
	{"codelayout", CodeLayoutAblation.exp},
	{"swprefetch", SwPrefetchAblation.exp},
}

// ExperimentNames lists the names RunExperiment accepts.
var ExperimentNames = func() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}()

// Options tunes experiment execution.
type ExpOptions struct {
	// Workloads restricts the benchmark set (nil = all registered).
	Workloads []string
	// Reps is the number of repetitions for timing experiments
	// (paper: averages over 3 executions); at least 1.
	Reps int
	// Seed is the base PRNG seed.
	Seed int64
	// Jobs is the parallel engine's worker-pool width (0 = GOMAXPROCS).
	// Every run is fully isolated, so output is byte-identical for any
	// value.
	Jobs int
	// Progress, when non-nil, receives live run-completion updates.
	Progress ProgressFunc

	// Set by prepare: the resolved workload list, the engine the
	// experiment executes on, and the named headline numbers it
	// publishes for the JSON report (only the kind ablations publish
	// any).
	names    []string
	builders []Builder
	eng      *Engine
	metrics  map[string]float64
}

// prepare resolves the workload list up front, so unknown names fail
// before any run is scheduled, and gives o an engine of its own.
func (o ExpOptions) prepare() (ExpOptions, error) {
	o.names = o.Workloads
	if len(o.names) == 0 {
		o.names = Names()
	}
	o.builders = make([]Builder, len(o.names))
	for i, name := range o.names {
		b, err := Lookup(name)
		if err != nil {
			return o, err
		}
		o.builders[i] = b
	}
	o.eng = NewEngine(o.Jobs)
	o.eng.SetProgress(o.Progress)
	o.metrics = make(map[string]float64)
	return o, nil
}

// recordMetric publishes a named headline number for the JSON report.
func (o ExpOptions) recordMetric(name string, v float64) { o.metrics[name] = v }

// ExpRun is one experiment's rendered output plus its execution
// accounting from the parallel engine. A []ExpRun is what cmd/experiments
// -bench-json writes: durations in nanoseconds, SimCycles raw, no
// derived ratio stored.
type ExpRun struct {
	Name    string        `json:"name"`
	Output  string        `json:"-"`
	Jobs    int           `json:"jobs"`       // worker-pool width used
	Runs    int           `json:"runs"`       // independent program runs executed
	RunTime time.Duration `json:"run_ns"`     // summed per-run wall clock (serial-equivalent time)
	Elapsed time.Duration `json:"elapsed_ns"` // actual wall clock
	// SimCycles sums the simulated cycles of the experiment's runs (see
	// EngineStats).
	SimCycles uint64 `json:"sim_cycles"`
	// Metrics carries named headline numbers the experiment published
	// via recordMetric (nil when it published none).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// McyclesPerSec returns the experiment's serial-equivalent simulation
// throughput in millions of simulated cycles per second.
func (r ExpRun) McyclesPerSec() float64 {
	if r.RunTime <= 0 {
		return 0
	}
	return float64(r.SimCycles) / 1e6 / r.RunTime.Seconds()
}

// Speedup estimates the speedup over a serial execution: the summed
// per-run wall clock divided by the elapsed wall clock. (Per-run
// results are independent of the jobs setting, so the sum of run
// durations is what a one-worker pool would have spent.)
func (r ExpRun) Speedup() float64 {
	if r.Elapsed <= 0 {
		return 1
	}
	return float64(r.RunTime) / float64(r.Elapsed)
}

// RunExperiment runs one experiment by name on a dedicated parallel
// engine and returns the rendered output together with run counts,
// wall-clock accounting and headline metrics. The workload list is
// resolved before dispatch, so a misspelt name fails every experiment —
// the db-only ones never read the list.
func RunExperiment(name string, opt ExpOptions) (ExpRun, error) {
	var run func(ExpOptions) (string, error)
	for _, e := range experiments {
		if e.name == name {
			run = e.run
			break
		}
	}
	if run == nil {
		return ExpRun{}, fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(ExperimentNames, ", "))
	}
	opt, err := opt.prepare()
	if err != nil {
		return ExpRun{}, err
	}
	start := time.Now()
	out, err := run(opt)
	if err != nil {
		return ExpRun{}, err
	}
	st := opt.eng.Stats()
	r := ExpRun{
		Name:      name,
		Output:    out,
		Jobs:      st.Jobs,
		Runs:      st.Runs,
		RunTime:   st.RunTime,
		Elapsed:   time.Since(start),
		SimCycles: st.SimCycles,
	}
	if len(opt.metrics) > 0 {
		r.Metrics = opt.metrics
	}
	return r, nil
}

// --- Shared scheduling and rendering ------------------------------------------

// labeled is one configuration of an experiment grid with the suffix of
// its progress label.
type labeled struct {
	label string
	cfg   RunConfig
}

// repeatGrid schedules o.Reps runs (see RepeatAsync) of every
// configuration for every workload, stamping the seed, and returns the
// handles indexed [workload][configuration]; they are valid once the
// engine's Wait returns nil.
func (o ExpOptions) repeatGrid(cfgs []labeled) [][]*RepeatHandle {
	grid := make([][]*RepeatHandle, len(o.names))
	for i, name := range o.names {
		for _, c := range cfgs {
			grid[i] = append(grid[i], o.eng.RepeatAsync(o.builders[i], o.seeded(c.cfg), o.Reps, name+"/"+c.label))
		}
	}
	return grid
}

// heapConfigs crosses Fig5Factors with cfgs, factor-major: entry
// j*len(cfgs)+k is configuration k at heap factor j.
func heapConfigs(cfgs ...labeled) []labeled {
	var out []labeled
	for _, f := range Fig5Factors {
		for _, c := range cfgs {
			c.cfg.HeapFactor = f
			out = append(out, labeled{fmt.Sprintf("%gx/%s", f, c.label), c.cfg})
		}
	}
	return out
}

// fieldCounter returns a finished run's monitor counter for the named
// field.
func fieldCounter(exp string, h *RunHandle, field string) (*monitor.FieldCounter, error) {
	for _, fc := range h.Sys().Monitor.HotFields() {
		if fc.Field.QualifiedName() == field {
			return fc, nil
		}
	}
	return nil, fmt.Errorf("%s: field %s received no samples", exp, field)
}

// --- Table 1: benchmark programs -------------------------------------------

// table1 lists the benchmark programs (the paper's Table 1) from their
// declared metadata, in registration order; it builds nothing.
func table1(opt ExpOptions) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Benchmark programs\n")
	fmt.Fprintf(&b, "%-11s %s\n", "program", "description")
	for _, name := range opt.names {
		m, _ := MetaOf(name)
		fmt.Fprintf(&b, "%-11s %s\n", name, m.Description)
	}
	return b.String(), nil
}

// --- Table 2: space overhead ------------------------------------------------

// table2 renders the space overhead of the machine-code maps for every
// workload (paper Table 2). Only boot-time compilation is needed, no
// execution; workloads compile in parallel on the engine. The paper's
// final "boot image" row does not apply: the VM itself is the host
// simulator, not compiled guest code (see DESIGN.md).
func table2(opt ExpOptions) (string, error) {
	spaces := make([]mcmap.SpaceStats, len(opt.names))
	for i, name := range opt.names {
		opt.eng.Submit(name+"/boot", func() error {
			_, sys, err := BuildSystem(opt.builders[i], RunConfig{Seed: opt.Seed})
			if err != nil {
				return err
			}
			spaces[i] = sys.VM.Table.Space()
			return nil
		})
	}
	if err := opt.eng.Wait(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Space overhead — size of machine code maps (KB)\n")
	fmt.Fprintf(&b, "%-11s %8s %13s %8s %8s %9s\n", "program", "mc (KB)", "GC maps (KB)", "MC maps", "methods", "MC/GC")
	// Sizes, ratios and totals come from bytes: kilobytes truncated to
	// integers print most GC maps as 0.
	kb := func(n uint64) float64 { return float64(n) / 1024 }
	ratio := func(mc, gc uint64) float64 { return float64(mc) / float64(max(gc, 1)) }
	var tc, tg, tm uint64
	for i, sp := range spaces {
		fmt.Fprintf(&b, "%-11s %8.1f %13.1f %8.1f %8d %8.1fx\n", opt.names[i],
			kb(sp.CodeBytes), kb(sp.GCMapBytes), kb(sp.MCMapBytes), sp.Methods, ratio(sp.MCMapBytes, sp.GCMapBytes))
		tc += sp.CodeBytes
		tg += sp.GCMapBytes
		tm += sp.MCMapBytes
	}
	fmt.Fprintf(&b, "%-11s %8.1f %13.1f %8.1f %8s %8.1fx\n", "total", kb(tc), kb(tg), kb(tm), "", ratio(tm, tg))
	return b.String(), nil
}

// --- Figure 2: sampling overhead ---------------------------------------------

// Fig2Intervals are the hardware sampling intervals the paper sweeps
// (25K, 50K, 100K events), scaled by the ~1/100 run-length factor of
// the simulation (DESIGN.md §7): the interval-to-event-volume ratio —
// what determines both overhead and coverage — matches the paper's.
var Fig2Intervals = []uint64{250, 500, 1000, 0} // 0 = auto

// Fig2Labels name the sweep points with their paper-scale equivalents.
var Fig2Labels = []string{"25K~", "50K~", "100K~", "auto"}

// fig2 measures execution-time overhead of runtime event sampling
// (monitoring on, co-allocation off) against the unmonitored baseline
// at heap 4x (paper Figure 2). Each workload's row is one exact lane
// pass (see RunLanes), which reproduces the row's separate runs cycle
// for cycle; the passes fan out on the engine.
func fig2(opt ExpOptions) (string, error) {
	passes := make([]*LanePass, len(opt.names))
	for i, name := range opt.names {
		opt.eng.Submit(name+"/lanes", func() error {
			p, err := RunLanes(opt.builders[i], opt.seeded(RunConfig{}), Fig2Intervals, opt.Reps)
			if err != nil {
				return err
			}
			opt.eng.AddSim(p.Base)
			passes[i] = p
			return nil
		})
	}
	if err := opt.eng.Wait(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: Execution time overhead of event sampling vs baseline (heap = 4x min)\n")
	fmt.Fprintf(&b, "(intervals are the paper's 25K/50K/100K scaled by the 1/100 run-length factor)\n")
	fmt.Fprintf(&b, "%-11s %8s %8s %8s %8s\n", "program", Fig2Labels[0], Fig2Labels[1], Fig2Labels[2], Fig2Labels[3])
	means := make([]float64, len(Fig2Intervals))
	for i, name := range opt.names {
		fmt.Fprintf(&b, "%-11s", name)
		p := passes[i]
		for j := range Fig2Intervals {
			ov := p.MeanCycles(j)/float64(p.Base) - 1
			fmt.Fprintf(&b, " %7.2f%%", 100*ov)
			means[j] += ov
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-11s", "average")
	for _, m := range means {
		fmt.Fprintf(&b, " %7.2f%%", 100*m/float64(len(opt.names)))
	}
	fmt.Fprintln(&b)
	return b.String(), nil
}

// --- Figure 3: co-allocated objects per interval ------------------------------

// Fig3Intervals are the sweep points for Figure 3 (the paper's 25K /
// 50K / 100K scaled like Fig2Intervals).
var Fig3Intervals = []uint64{250, 500, 1000}

// fig3 counts co-allocated object pairs at different sampling intervals
// (heap = 4x min, paper Figure 3; log-scale plot). All (workload ×
// interval) runs execute in parallel.
func fig3(opt ExpOptions) (string, error) {
	handles := make([][]*RunHandle, len(opt.names))
	for i, name := range opt.names {
		for _, iv := range Fig3Intervals {
			handles[i] = append(handles[i], opt.eng.RunAsync(opt.builders[i],
				RunConfig{Coalloc: true, Interval: iv, Seed: opt.Seed},
				fmt.Sprintf("%s/iv=%d", name, iv)))
		}
	}
	if err := opt.eng.Wait(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: Number of co-allocated objects at different sampling intervals (heap = 4x)\n")
	fmt.Fprintf(&b, "(intervals are the paper's 25K/50K/100K scaled by the 1/100 run-length factor)\n")
	fmt.Fprintf(&b, "%-11s %10s %10s %10s\n", "program", "25K~", "50K~", "100K~")
	for i, name := range opt.names {
		h := handles[i]
		fmt.Fprintf(&b, "%-11s %10d %10d %10d\n", name,
			h[0].Result().CoallocPairs, h[1].Result().CoallocPairs, h[2].Result().CoallocPairs)
	}
	return b.String(), nil
}

// --- Figure 4: L1 miss reduction ----------------------------------------------

// fig4 measures the L1 miss reduction with co-allocation on versus the
// GenMS baseline at heap 4x (paper Figure 4), auto interval. The
// baseline and co-allocation runs of every workload all execute in
// parallel.
func fig4(opt ExpOptions) (string, error) {
	type cell struct{ base, co *RunHandle }
	cells := make([]cell, len(opt.names))
	for i, name := range opt.names {
		cells[i].base = opt.eng.RunAsync(opt.builders[i], RunConfig{Seed: opt.Seed}, name+"/base")
		cells[i].co = opt.eng.RunAsync(opt.builders[i], RunConfig{Coalloc: true, Interval: 0, Seed: opt.Seed}, name+"/coalloc")
	}
	if err := opt.eng.Wait(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: L1 miss reduction with co-allocation (heap = 4x min, auto interval)\n")
	fmt.Fprintf(&b, "%-11s %12s %12s %10s %10s\n", "program", "base L1", "coalloc L1", "reduction", "pairs")
	for i, name := range opt.names {
		base, co := cells[i].base.Result(), cells[i].co.Result()
		reduction := 1 - float64(co.Cache.L1Misses)/float64(max(base.Cache.L1Misses, 1))
		fmt.Fprintf(&b, "%-11s %12d %12d %9.1f%% %10d\n",
			name, base.Cache.L1Misses, co.Cache.L1Misses, 100*reduction, co.CoallocPairs)
	}
	return b.String(), nil
}

// --- Figure 5: execution time across heap sizes -------------------------------

// Fig5Factors are the heap-size multiples the paper sweeps.
var Fig5Factors = []float64{1, 1.5, 2, 3, 4}

// fig5 measures normalized execution time (co-allocation vs GenMS
// baseline) across heap sizes 1x–4x with the auto-selected sampling
// interval (paper Figure 5). The full (workload × heap factor × config
// × rep) grid fans out on the engine.
func fig5(opt ExpOptions) (string, error) {
	grid := opt.repeatGrid(heapConfigs(labeled{"base", RunConfig{}}, labeled{"coalloc", RunConfig{Coalloc: true}}))
	if err := opt.eng.Wait(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: Execution time with co-allocation relative to baseline (auto interval)\n")
	fmt.Fprintf(&b, "%-11s", "program")
	for _, f := range Fig5Factors {
		fmt.Fprintf(&b, " %7.1fx", f)
	}
	fmt.Fprintf(&b, " %9s\n", "max σ")
	for i, name := range opt.names {
		fmt.Fprintf(&b, "%-11s", name)
		maxSD := 0.0
		for j := range Fig5Factors {
			base, co := grid[i][2*j], grid[i][2*j+1]
			fmt.Fprintf(&b, " %8.3f", co.Mean()/base.Mean())
			maxSD = max(maxSD, (base.StdDev()+co.StdDev())/(2*base.Mean()))
		}
		fmt.Fprintf(&b, " %8.4f\n", maxSD)
	}
	fmt.Fprintf(&b, "(σ is the relative standard deviation over repetitions; the paper\n")
	fmt.Fprintf(&b, " reports these to be very small in practice, §6.1)\n")
	return b.String(), nil
}

// --- Figure 6: GenCopy vs GenMS+coalloc on db ---------------------------------

// fig6 compares collectors on db across heap sizes (paper Figure 6):
// GenMS baseline, GenMS with co-allocation, and GenCopy, in mean cycles
// normalized to the GenMS baseline at each heap size. All (heap factor
// × collector × rep) runs execute in parallel.
func fig6(opt ExpOptions) (string, error) {
	builder, err := Lookup("db")
	if err != nil {
		return "", err
	}
	opt.names, opt.builders = []string{"db"}, []Builder{builder}
	grid := opt.repeatGrid(heapConfigs(
		labeled{"genms", RunConfig{}},
		labeled{"genms+co", RunConfig{Coalloc: true}},
		labeled{"gencopy", RunConfig{Collector: core.GenCopy}}))[0]
	if err := opt.eng.Wait(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: db — GenCopy vs GenMS with co-allocation (normalized to GenMS baseline)\n")
	fmt.Fprintf(&b, "%6s %12s %12s %12s %14s\n", "heap", "GenMS", "GenMS+co", "GenCopy", "co vs GenCopy")
	for j, f := range Fig5Factors {
		base, co, gc := grid[3*j].Mean(), grid[3*j+1].Mean(), grid[3*j+2].Mean()
		fmt.Fprintf(&b, "%5.1fx %12.3f %12.3f %12.3f %13.1f%%\n",
			f, 1.0, co/base, gc/base, 100*(1-co/gc))
	}
	return b.String(), nil
}

// --- Figure 7: runtime feedback on db ------------------------------------------

// fig7 runs db twice — monitoring only, and with co-allocation — while
// tracking String::value, and renders each run's cumulative estimated
// miss series plus the coalloc run's per-period miss-rate series with
// its 3-period moving average (paper Figure 7: the dyn-coalloc curve
// bends when co-allocation kicks in; the baseline keeps climbing).
func fig7(opt ExpOptions) (string, error) {
	builder, err := Lookup("db")
	if err != nil {
		return "", err
	}
	meta, _ := MetaOf("db")
	hotField := meta.HotFieldName
	hBase := opt.eng.RunAsync(builder, RunConfig{Monitoring: true, Interval: 2500, Seed: opt.Seed}, "db/monitor")
	hCo := opt.eng.RunAsync(builder, RunConfig{Coalloc: true, Interval: 2500, Seed: opt.Seed}, "db/coalloc")
	if err := opt.eng.Wait(); err != nil {
		return "", err
	}
	base, err := fieldCounter("fig7", hBase, hotField)
	if err != nil {
		return "", err
	}
	co, err := fieldCounter("fig7", hCo, hotField)
	if err != nil {
		return "", err
	}
	baseCum, coCum := base.Series.Cumulative(), co.Series.Cumulative()
	rate, smooth := &co.RateSeries, co.RateSeries.Smoothed(3)

	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7a: db — cumulative String::value misses (baseline vs dyn-coalloc)\n")
	fmt.Fprintf(&b, "%14s %14s      %14s %14s\n", "cycle", "baseline-cum", "cycle", "coalloc-cum")
	for i := 0; i < max(len(baseCum.Samples), len(coCum.Samples)); i++ {
		bc, bv, cc, cv := "", "", "", ""
		if i < len(baseCum.Samples) {
			bc = fmt.Sprintf("%14d", baseCum.Samples[i].Time)
			bv = fmt.Sprintf("%14.0f", baseCum.Samples[i].Value)
		}
		if i < len(coCum.Samples) {
			cc = fmt.Sprintf("%14d", coCum.Samples[i].Time)
			cv = fmt.Sprintf("%14.0f", coCum.Samples[i].Value)
		}
		fmt.Fprintf(&b, "%14s %14s      %14s %14s\n", bc, bv, cc, cv)
	}
	if bl, cl := baseCum.Last(), coCum.Last(); bl > 0 {
		fmt.Fprintf(&b, "\ntotal String::value misses: baseline %.0f, dyn-coalloc %.0f (%.0f%% reduction on those objects)\n",
			bl, cl, 100*(1-cl/bl))
	}
	fmt.Fprintf(&b, "\nFigure 7b: dyn-coalloc miss rate over time (misses/Mcycle)\n")
	fmt.Fprintf(&b, "%14s %14s %14s\n", "cycle", "rate", "moving-avg(3)")
	for i := range rate.Samples {
		fmt.Fprintf(&b, "%14d %14.0f %14.1f\n",
			rate.Samples[i].Time, rate.Samples[i].Value, smooth.Samples[i].Value)
	}
	return b.String(), nil
}

// --- Figure 8: detecting a poor placement ---------------------------------------

// Fig8GapAtCycle is the point of the Figure 8 manual intervention:
// db starts out with a good (adjacent) allocation order, and at this
// cycle the GC is instructed to place one cache line of empty space
// between the String and char[] objects. The monitoring loop must
// discover the regression and switch back.
const Fig8GapAtCycle = 120_000_000

// fig8 runs the Figure 8 scenario and renders the manager's decision
// records and the String::value miss-rate series. (A single run; it still
// executes on the engine so accounting and progress are uniform.)
func fig8(o ExpOptions) (string, error) {
	builder, err := Lookup("db")
	if err != nil {
		return "", err
	}
	h := o.eng.RunAsync(builder, RunConfig{Coalloc: true, CoallocConfig: &coalloc.Config{GapAtCycle: Fig8GapAtCycle},
		Interval: 2500, Seed: o.Seed}, "db/gap")
	if err := o.eng.Wait(); err != nil {
		return "", err
	}
	fc, err := fieldCounter("fig8", h, "String::value")
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: db — misses for String objects with a deliberately poor placement\n")
	fmt.Fprintf(&b, "(one cache line of padding between String and char[]; the feedback loop\n")
	fmt.Fprintf(&b, " detects that the placement does not help and reverts to adjacent placement)\n\n")
	fmt.Fprintf(&b, "policy decisions:\n")
	for _, r := range h.Sys().OptManager.Records() {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	fmt.Fprintf(&b, "\n%14s %14s\n", "cycle", "misses/Mcycle")
	for _, s := range fc.RateSeries.Samples {
		fmt.Fprintf(&b, "%14d %14.0f\n", s.Time, s.Value)
	}
	return b.String(), nil
}
