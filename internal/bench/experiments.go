package bench

import (
	"fmt"
	"strings"
	"time"

	"hpmvm/internal/core"
	"hpmvm/internal/stats"
)

// This file implements the regeneration of every table and figure of
// the paper's evaluation (§6). Each experiment returns both structured
// data and a formatted text rendering; cmd/experiments prints them and
// bench_test.go exposes them as Go benchmarks. EXPERIMENTS.md records
// paper-vs-measured values.

// experiments is the one table of experiments, in the order -exp all
// runs them: RunExperiment dispatches through it and ExperimentNames
// lists it.
var experiments = []struct {
	name string
	run  func(ExpOptions) (string, error)
}{
	{"table1", Table1},
	{"table2", Table2},
	{"fig2", Fig2},
	{"fig3", Fig3},
	{"fig4", Fig4},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"fig7", Fig7},
	{"fig8", Fig8},
	{"ablations", Ablations},
	{"warmstart", Warmstart},
	{"sampling", Sampling},
	{"sampling-fig5", SamplingFig5},
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

	// eng, when set (by RunExperimentFull), is the shared engine the
	// experiment executes on, so accounting lands in one place.
	eng *Engine
	// metrics, when set (by RunExperimentFull), collects named numeric
	// headline results (e.g. the warm-start speedup) for the JSON
	// report.
	metrics map[string]float64
}

// recordMetric publishes a named headline number for the JSON report;
// a no-op outside RunExperimentFull.
func (o ExpOptions) recordMetric(name string, v float64) {
	if o.metrics != nil {
		o.metrics[name] = v
	}
}

func (o ExpOptions) workloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return Names()
}

// engine returns the experiment's execution engine: the shared one
// when running under RunExperimentFull, else a fresh pool.
func (o ExpOptions) engine() *Engine {
	if o.eng != nil {
		return o.eng
	}
	e := NewEngine(o.Jobs)
	e.SetProgress(o.Progress)
	return e
}

// builders resolves the workload list to builders up front so unknown
// names fail before any run is scheduled.
func (o ExpOptions) builders() ([]string, []Builder, error) {
	names := o.workloads()
	bs := make([]Builder, len(names))
	for i, name := range names {
		b, err := Lookup(name)
		if err != nil {
			return nil, nil, err
		}
		bs[i] = b
	}
	return names, bs, nil
}

// RunExperiment dispatches by name and returns the rendered result.
// The workload list is resolved here, before dispatch, so a misspelt
// name fails every experiment — the db-only ones never read the list.
func RunExperiment(name string, opt ExpOptions) (string, error) {
	for _, e := range experiments {
		if e.name == name {
			if _, _, err := opt.builders(); err != nil {
				return "", err
			}
			return e.run(opt)
		}
	}
	return "", fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(ExperimentNames, ", "))
}

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

// RunExperimentFull runs one experiment on a dedicated parallel engine
// and returns the rendered output together with run counts and
// wall-clock accounting.
func RunExperimentFull(name string, opt ExpOptions) (ExpRun, error) {
	e := NewEngine(opt.Jobs)
	e.SetProgress(opt.Progress)
	opt.eng = e
	opt.metrics = make(map[string]float64)
	start := time.Now()
	out, err := RunExperiment(name, opt)
	if err != nil {
		return ExpRun{}, err
	}
	st := e.Stats()
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

// --- Table 1: benchmark programs -------------------------------------------

// Table1 lists the benchmark programs (the paper's Table 1). Universe
// construction fans out on the engine; rows render in registration
// order.
func Table1(opt ExpOptions) (string, error) {
	e := opt.engine()
	names, builders, err := opt.builders()
	if err != nil {
		return "", err
	}
	progs := make([]*Program, len(names))
	for i, name := range names {
		i, builder := i, builders[i]
		e.Submit(name, func() error {
			progs[i] = builder()
			return nil
		})
	}
	if err := e.Wait(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Benchmark programs\n")
	fmt.Fprintf(&b, "%-11s %s\n", "program", "description")
	for _, p := range progs {
		fmt.Fprintf(&b, "%-11s %s\n", p.Name, p.Description)
	}
	return b.String(), nil
}

// --- Table 2: space overhead ------------------------------------------------

// Table2Row is one program's map-space numbers in KB.
type Table2Row struct {
	Program     string
	MachineCode uint64
	GCMaps      uint64
	MCMaps      uint64
	Methods     int
}

// Table2Data computes the space overhead of the machine-code maps for
// every workload. Only boot-time compilation is needed; no execution.
// Workloads compile in parallel on the engine.
func Table2Data(opt ExpOptions) ([]Table2Row, error) {
	e := opt.engine()
	names, builders, err := opt.builders()
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(names))
	for i, name := range names {
		i, name, builder := i, name, builders[i]
		e.Submit(name+"/boot", func() error {
			_, sys, err := BuildSystem(builder, RunConfig{Seed: opt.Seed})
			if err != nil {
				return err
			}
			sp := sys.VM.Table.Space()
			rows[i] = Table2Row{
				Program:     name,
				MachineCode: sp.CodeBytes / 1024,
				GCMaps:      sp.GCMapBytes / 1024,
				MCMaps:      sp.MCMapBytes / 1024,
				Methods:     sp.Methods,
			}
			return nil
		})
	}
	if err := e.Wait(); err != nil {
		return nil, err
	}
	return rows, nil
}

// Table2 renders the space-overhead table (paper Table 2). The paper's
// final "boot image" row does not apply: the VM itself is the host
// simulator, not compiled guest code (see DESIGN.md).
func Table2(opt ExpOptions) (string, error) {
	rows, err := Table2Data(opt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Space overhead — size of machine code maps (KB)\n")
	fmt.Fprintf(&b, "%-11s %8s %13s %8s %8s %9s\n", "program", "mc (KB)", "GC maps (KB)", "MC maps", "methods", "MC/GC")
	var tc, tg, tm uint64
	for _, r := range rows {
		ratio := float64(r.MCMaps) / float64(max64(r.GCMaps, 1))
		fmt.Fprintf(&b, "%-11s %8d %13d %8d %8d %8.1fx\n",
			r.Program, r.MachineCode, r.GCMaps, r.MCMaps, r.Methods, ratio)
		tc += r.MachineCode
		tg += r.GCMaps
		tm += r.MCMaps
	}
	fmt.Fprintf(&b, "%-11s %8d %13d %8d\n", "total", tc, tg, tm)
	return b.String(), nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// --- Figure 2: sampling overhead ---------------------------------------------

// Fig2Intervals are the hardware sampling intervals the paper sweeps
// (25K, 50K, 100K events), scaled by the ~1/100 run-length factor of
// the simulation (DESIGN.md §7): the interval-to-event-volume ratio —
// what determines both overhead and coverage — matches the paper's.
var Fig2Intervals = []uint64{250, 500, 1000, 0} // 0 = auto

// Fig2Labels name the sweep points with their paper-scale equivalents.
var Fig2Labels = []string{"25K~", "50K~", "100K~", "auto"}

// Fig2Row is one program's overhead series.
type Fig2Row struct {
	Program  string
	Baseline float64   // mean cycles without monitoring
	Overhead []float64 // fractional overhead per interval (Fig2Intervals order)
}

// Fig2Data measures execution-time overhead of runtime event sampling
// (monitoring on, co-allocation off) against the unmonitored baseline
// at heap 4x (paper Figure 2). The whole (workload × interval × rep)
// grid fans out on the engine; rows assemble in workload order.
func Fig2Data(opt ExpOptions) ([]Fig2Row, error) {
	e := opt.engine()
	names, builders, err := opt.builders()
	if err != nil {
		return nil, err
	}
	type cell struct {
		base *RepeatHandle
		mon  []*RepeatHandle
	}
	cells := make([]cell, len(names))
	for i, name := range names {
		builder := builders[i]
		cells[i].base = e.RepeatAsync(builder, RunConfig{Seed: opt.Seed}, opt.Reps, name+"/base")
		for j, iv := range Fig2Intervals {
			cells[i].mon = append(cells[i].mon, e.RepeatAsync(builder, RunConfig{
				Monitoring: true, Interval: iv, Seed: opt.Seed,
			}, opt.Reps, fmt.Sprintf("%s/%s", name, Fig2Labels[j])))
		}
	}
	if err := e.Wait(); err != nil {
		return nil, err
	}
	rows := make([]Fig2Row, len(names))
	for i, name := range names {
		base := cells[i].base.Mean()
		row := Fig2Row{Program: name, Baseline: base}
		for _, m := range cells[i].mon {
			row.Overhead = append(row.Overhead, m.Mean()/base-1)
		}
		rows[i] = row
	}
	return rows, nil
}

// Fig2 renders the sampling-overhead figure.
func Fig2(opt ExpOptions) (string, error) {
	rows, err := Fig2Data(opt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: Execution time overhead of event sampling vs baseline (heap = 4x min)\n")
	fmt.Fprintf(&b, "(intervals are the paper's 25K/50K/100K scaled by the 1/100 run-length factor)\n")
	fmt.Fprintf(&b, "%-11s %8s %8s %8s %8s\n", "program", Fig2Labels[0], Fig2Labels[1], Fig2Labels[2], Fig2Labels[3])
	means := make([]float64, len(Fig2Intervals))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s", r.Program)
		for i, ov := range r.Overhead {
			fmt.Fprintf(&b, " %7.2f%%", 100*ov)
			means[i] += ov
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-11s", "average")
	for i := range means {
		fmt.Fprintf(&b, " %7.2f%%", 100*means[i]/float64(len(rows)))
	}
	fmt.Fprintln(&b)
	return b.String(), nil
}

// --- Sampled fig2: estimated vs exact ----------------------------------------

// SamplingRow is one program's estimated-vs-exact comparison: the
// exact fig2 cell means next to the multiplexed sampled pass's
// estimates, in cycles.
type SamplingRow struct {
	Program   string
	ExactBase float64
	EstBase   float64
	ExactMon  []float64 // mean exact monitored cycles per interval (Fig2Intervals order)
	EstMon    []float64 // mean estimated monitored cycles per interval
}

// Errs returns the signed relative estimation error of every cell in
// row order: baseline first, then the monitored intervals.
func (r SamplingRow) Errs() []float64 {
	errs := []float64{r.EstBase/r.ExactBase - 1}
	for j := range r.ExactMon {
		errs = append(errs, r.EstMon[j]/r.ExactMon[j]-1)
	}
	return errs
}

// SamplingData runs the full fig2 grid twice — exactly, and as one
// multiplexed sampled pass per workload (see RunSampledPass) — and
// returns the per-cell comparison plus the serial-equivalent wall
// clock each half consumed. The exact grid is (1 baseline + 4
// intervals) × reps runs per workload; the sampled half is a single
// pass per workload hosting all of them as lanes, which is where the
// wall-clock speedup comes from. Each pass runs the workload's
// calibrated schedule (see CalibratedSampling).
func SamplingData(opt ExpOptions) (rows []SamplingRow, exactTime, sampledTime time.Duration, err error) {
	e := opt.engine()
	names, builders, err := opt.builders()
	if err != nil {
		return nil, 0, 0, err
	}

	// Round 1: the exact fig2 grid, cell for cell.
	type cell struct {
		base *RepeatHandle
		mon  []*RepeatHandle
	}
	rt0 := e.Stats().RunTime
	cells := make([]cell, len(names))
	for i, name := range names {
		builder := builders[i]
		cells[i].base = e.RepeatAsync(builder, RunConfig{Seed: opt.Seed}, opt.Reps, name+"/exact-base")
		for j, iv := range Fig2Intervals {
			cells[i].mon = append(cells[i].mon, e.RepeatAsync(builder, RunConfig{
				Monitoring: true, Interval: iv, Seed: opt.Seed,
			}, opt.Reps, fmt.Sprintf("%s/exact-%s", name, Fig2Labels[j])))
		}
	}
	if err := e.Wait(); err != nil {
		return nil, 0, 0, err
	}
	exactTime = e.Stats().RunTime - rt0

	// Round 2: one multiplexed sampled pass per workload, each on its
	// calibrated schedule.
	passes := make([]*SampledPass, len(names))
	rt1 := e.Stats().RunTime
	for i := range names {
		i := i
		builder := builders[i]
		e.Submit(names[i]+"/sampled", func() error {
			p, err := RunSampledPass(builder, RunConfig{Seed: opt.Seed}, Fig2Intervals, opt.Reps)
			if err != nil {
				return err
			}
			e.AddSim(p.Cycles)
			passes[i] = p
			return nil
		})
	}
	if err := e.Wait(); err != nil {
		return nil, 0, 0, err
	}
	sampledTime = e.Stats().RunTime - rt1

	rows = make([]SamplingRow, len(names))
	for i, name := range names {
		p := passes[i]
		row := SamplingRow{
			Program:   name,
			ExactBase: cells[i].base.Mean(),
			EstBase:   p.Estimate.Cycles,
		}
		for j := range Fig2Intervals {
			row.ExactMon = append(row.ExactMon, cells[i].mon[j].Mean())
			row.EstMon = append(row.EstMon, stats.Mean(p.MonCycles[j]))
		}
		rows[i] = row
	}
	return rows, exactTime, sampledTime, nil
}

// Sampling renders the sampled-simulation validation: per-cell
// estimation error of the multiplexed pass against the exact fig2
// grid, and the wall-clock speedup of replacing the grid with one
// sampled pass per workload. Headline numbers land in the JSON report
// as sampling_speedup / sampling_max_err_pct / sampling_mean_err_pct.
func Sampling(opt ExpOptions) (string, error) {
	rows, exactTime, sampledTime, err := SamplingData(opt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Sampled fig2: estimated vs exact full-run cycles (heap = 4x min)\n")
	fmt.Fprintf(&b, "(one multiplexed sampled pass per workload hosts the baseline and all\n")
	fmt.Fprintf(&b, " %d monitored lanes of the exact grid; error is est/exact - 1 per cell)\n",
		len(Fig2Intervals)*opt.Reps)
	fmt.Fprintf(&b, "%-11s %8s %8s %8s %8s %8s\n", "program",
		"base", Fig2Labels[0], Fig2Labels[1], Fig2Labels[2], Fig2Labels[3])
	var maxErr, sumErr float64
	var worst string
	cellLabels := append([]string{"base"}, Fig2Labels...)
	ncells := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s", r.Program)
		for c, e := range r.Errs() {
			fmt.Fprintf(&b, " %+7.2f%%", 100*e)
			ae := e
			if ae < 0 {
				ae = -ae
			}
			sumErr += ae
			ncells++
			if ae > maxErr {
				maxErr = ae
				worst = r.Program + "/" + cellLabels[c]
			}
		}
		fmt.Fprintln(&b)
	}
	meanErr := sumErr / float64(ncells)
	speedup := float64(exactTime) / float64(sampledTime)
	fmt.Fprintf(&b, "\nmean |error| %.2f%%, worst |error| %.2f%% (%s)\n",
		100*meanErr, 100*maxErr, worst)
	fmt.Fprintf(&b, "exact grid %v serial-equivalent, sampled passes %v -> %.1fx speedup\n",
		exactTime.Round(time.Millisecond), sampledTime.Round(time.Millisecond), speedup)
	opt.recordMetric("sampling_speedup", speedup)
	opt.recordMetric("sampling_max_err_pct", 100*maxErr)
	opt.recordMetric("sampling_mean_err_pct", 100*meanErr)
	return b.String(), nil
}

// --- Sampled fig5: estimated vs exact across heap sizes -----------------------

// SamplingFig5Row is one program's estimated-vs-exact comparison
// across the fig5 heap-size axis, in cycles: exact baseline and
// monitored (auto interval) means next to the sampled pass's
// estimates, per heap factor (Fig5Factors order).
type SamplingFig5Row struct {
	Program   string
	ExactBase []float64
	EstBase   []float64
	ExactMon  []float64
	EstMon    []float64
}

// Errs returns the signed relative estimation error of every cell:
// for each heap factor, baseline then monitored.
func (r SamplingFig5Row) Errs() []float64 {
	var errs []float64
	for j := range r.ExactBase {
		errs = append(errs, r.EstBase[j]/r.ExactBase[j]-1, r.EstMon[j]/r.ExactMon[j]-1)
	}
	return errs
}

// SamplingFig5Data runs the fig5 heap-size axis twice — exactly
// (baseline + monitored-auto, reps each, per heap point) and as one
// multiplexed sampled pass per heap point hosting the baseline plus
// reps monitored-auto lanes — and returns the per-cell comparison plus
// the serial-equivalent wall clock of each half.
//
// The sampled half covers fig5's heap-size axis with monitoring, not
// fig5's co-allocation configuration: co-allocation cannot ride a
// lane. Its whole point is feeding samples back into GC placement
// decisions, which changes object addresses and therefore the shared
// cache-state evolution — it is a different architectural stream, not
// an overhead on a shared one (DESIGN.md §12). Monitoring, by
// contract, only adds cycles.
func SamplingFig5Data(opt ExpOptions) (rows []SamplingFig5Row, exactTime, sampledTime time.Duration, err error) {
	e := opt.engine()
	names, builders, err := opt.builders()
	if err != nil {
		return nil, 0, 0, err
	}

	// Round 1: the exact grid — baseline and monitored-auto, per point.
	type cell struct{ base, mon *RepeatHandle }
	rt0 := e.Stats().RunTime
	cells := make([][]cell, len(names))
	for i, name := range names {
		builder := builders[i]
		cells[i] = make([]cell, len(Fig5Factors))
		for j, f := range Fig5Factors {
			label := fmt.Sprintf("%s/%gx", name, f)
			cells[i][j].base = e.RepeatAsync(builder,
				RunConfig{HeapFactor: f, Seed: opt.Seed}, opt.Reps, label+"/exact-base")
			cells[i][j].mon = e.RepeatAsync(builder,
				RunConfig{HeapFactor: f, Monitoring: true, Seed: opt.Seed}, opt.Reps, label+"/exact-auto")
		}
	}
	if err := e.Wait(); err != nil {
		return nil, 0, 0, err
	}
	exactTime = e.Stats().RunTime - rt0

	// Round 2: one sampled pass per (workload × heap point) with reps
	// auto-interval lanes, on the workload's calibrated schedule.
	passes := make([][]*SampledPass, len(names))
	rt1 := e.Stats().RunTime
	for i := range names {
		i := i
		builder := builders[i]
		passes[i] = make([]*SampledPass, len(Fig5Factors))
		for j, f := range Fig5Factors {
			j, f := j, f
			e.Submit(fmt.Sprintf("%s/%gx/sampled", names[i], f), func() error {
				p, err := RunSampledPass(builder,
					RunConfig{HeapFactor: f, Seed: opt.Seed}, []uint64{0}, opt.Reps)
				if err != nil {
					return err
				}
				e.AddSim(p.Cycles)
				passes[i][j] = p
				return nil
			})
		}
	}
	if err := e.Wait(); err != nil {
		return nil, 0, 0, err
	}
	sampledTime = e.Stats().RunTime - rt1

	rows = make([]SamplingFig5Row, len(names))
	for i, name := range names {
		row := SamplingFig5Row{Program: name}
		for j := range Fig5Factors {
			p := passes[i][j]
			row.ExactBase = append(row.ExactBase, cells[i][j].base.Mean())
			row.EstBase = append(row.EstBase, p.Estimate.Cycles)
			row.ExactMon = append(row.ExactMon, cells[i][j].mon.Mean())
			row.EstMon = append(row.EstMon, stats.Mean(p.MonCycles[0]))
		}
		rows[i] = row
	}
	return rows, exactTime, sampledTime, nil
}

// SamplingFig5 renders the sampled heap-size sweep validation: per-cell
// estimation error of the sampled passes against the exact grid, and
// the wall-clock speedup of replacing each heap point's 2×reps exact
// runs with one multiplexed pass. Headline numbers land in the JSON
// report as sampling_fig5_speedup / sampling_fig5_max_err_pct /
// sampling_fig5_mean_err_pct.
func SamplingFig5(opt ExpOptions) (string, error) {
	rows, exactTime, sampledTime, err := SamplingFig5Data(opt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Sampled fig5: estimated vs exact full-run cycles across heap sizes\n")
	fmt.Fprintf(&b, "(per heap point, one multiplexed sampled pass hosts the baseline and %d\n", opt.Reps)
	fmt.Fprintf(&b, " monitored-auto lanes, replacing %d exact runs; co-allocation cannot be\n", 2*opt.Reps)
	fmt.Fprintf(&b, " multiplexed — its feedback changes the architectural stream — so the\n")
	fmt.Fprintf(&b, " sampled sweep covers the monitored heap-size axis; error per cell, b=base m=monitored)\n")
	fmt.Fprintf(&b, "%-11s", "program")
	for _, f := range Fig5Factors {
		fmt.Fprintf(&b, " %8s %8s", fmt.Sprintf("%gx b", f), fmt.Sprintf("%gx m", f))
	}
	fmt.Fprintln(&b)
	var maxErr, sumErr float64
	var worst string
	ncells := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s", r.Program)
		for c, e := range r.Errs() {
			fmt.Fprintf(&b, " %+7.2f%%", 100*e)
			ae := e
			if ae < 0 {
				ae = -ae
			}
			sumErr += ae
			ncells++
			if ae > maxErr {
				maxErr = ae
				kind := "base"
				if c%2 == 1 {
					kind = "mon"
				}
				worst = fmt.Sprintf("%s/%gx/%s", r.Program, Fig5Factors[c/2], kind)
			}
		}
		fmt.Fprintln(&b)
	}
	meanErr := sumErr / float64(ncells)
	speedup := float64(exactTime) / float64(sampledTime)
	fmt.Fprintf(&b, "\nmean |error| %.2f%%, worst |error| %.2f%% (%s)\n",
		100*meanErr, 100*maxErr, worst)
	fmt.Fprintf(&b, "exact grid %v serial-equivalent, sampled passes %v -> %.1fx speedup\n",
		exactTime.Round(time.Millisecond), sampledTime.Round(time.Millisecond), speedup)
	opt.recordMetric("sampling_fig5_speedup", speedup)
	opt.recordMetric("sampling_fig5_max_err_pct", 100*maxErr)
	opt.recordMetric("sampling_fig5_mean_err_pct", 100*meanErr)
	return b.String(), nil
}

// --- Figure 3: co-allocated objects per interval ------------------------------

// Fig3Row is one program's co-allocation counts per sampling interval.
type Fig3Row struct {
	Program string
	Pairs   []uint64 // per interval (25K, 50K, 100K)
}

// Fig3Intervals are the sweep points for Figure 3 (the paper's 25K /
// 50K / 100K scaled like Fig2Intervals).
var Fig3Intervals = []uint64{250, 500, 1000}

// Fig3Data counts co-allocated object pairs at different sampling
// intervals (heap = 4x min, paper Figure 3; log-scale plot). All
// (workload × interval) runs execute in parallel.
func Fig3Data(opt ExpOptions) ([]Fig3Row, error) {
	e := opt.engine()
	names, builders, err := opt.builders()
	if err != nil {
		return nil, err
	}
	handles := make([][]*RunHandle, len(names))
	for i, name := range names {
		for _, iv := range Fig3Intervals {
			handles[i] = append(handles[i], e.RunAsync(builders[i],
				RunConfig{Coalloc: true, Interval: iv, Seed: opt.Seed},
				fmt.Sprintf("%s/iv=%d", name, iv)))
		}
	}
	if err := e.Wait(); err != nil {
		return nil, err
	}
	rows := make([]Fig3Row, len(names))
	for i, name := range names {
		rows[i] = Fig3Row{Program: name}
		for _, h := range handles[i] {
			rows[i].Pairs = append(rows[i].Pairs, h.Result().CoallocPairs)
		}
	}
	return rows, nil
}

// Fig3 renders the co-allocation count sweep.
func Fig3(opt ExpOptions) (string, error) {
	rows, err := Fig3Data(opt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: Number of co-allocated objects at different sampling intervals (heap = 4x)\n")
	fmt.Fprintf(&b, "(intervals are the paper's 25K/50K/100K scaled by the 1/100 run-length factor)\n")
	fmt.Fprintf(&b, "%-11s %10s %10s %10s\n", "program", "25K~", "50K~", "100K~")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %10d %10d %10d\n", r.Program, r.Pairs[0], r.Pairs[1], r.Pairs[2])
	}
	return b.String(), nil
}

// --- Figure 4: L1 miss reduction ----------------------------------------------

// Fig4Row is one program's miss numbers.
type Fig4Row struct {
	Program   string
	BaseL1    uint64
	CoL1      uint64
	Reduction float64 // fraction of L1 misses removed
	Pairs     uint64
}

// Fig4Data measures the L1 miss reduction with co-allocation on versus
// the GenMS baseline at heap 4x (paper Figure 4), auto interval. The
// baseline and co-allocation runs of every workload all execute in
// parallel.
func Fig4Data(opt ExpOptions) ([]Fig4Row, error) {
	e := opt.engine()
	names, builders, err := opt.builders()
	if err != nil {
		return nil, err
	}
	type cell struct{ base, co *RunHandle }
	cells := make([]cell, len(names))
	for i, name := range names {
		cells[i].base = e.RunAsync(builders[i], RunConfig{Seed: opt.Seed}, name+"/base")
		cells[i].co = e.RunAsync(builders[i], RunConfig{Coalloc: true, Interval: 0, Seed: opt.Seed}, name+"/coalloc")
	}
	if err := e.Wait(); err != nil {
		return nil, err
	}
	rows := make([]Fig4Row, len(names))
	for i, name := range names {
		base, co := cells[i].base.Result(), cells[i].co.Result()
		rows[i] = Fig4Row{
			Program:   name,
			BaseL1:    base.Cache.L1Misses,
			CoL1:      co.Cache.L1Misses,
			Reduction: 1 - float64(co.Cache.L1Misses)/float64(max64(base.Cache.L1Misses, 1)),
			Pairs:     co.CoallocPairs,
		}
	}
	return rows, nil
}

// Fig4 renders the miss-reduction figure.
func Fig4(opt ExpOptions) (string, error) {
	rows, err := Fig4Data(opt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: L1 miss reduction with co-allocation (heap = 4x min, auto interval)\n")
	fmt.Fprintf(&b, "%-11s %12s %12s %10s %10s\n", "program", "base L1", "coalloc L1", "reduction", "pairs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %12d %12d %9.1f%% %10d\n",
			r.Program, r.BaseL1, r.CoL1, 100*r.Reduction, r.Pairs)
	}
	return b.String(), nil
}

// --- Figure 5: execution time across heap sizes -------------------------------

// Fig5Factors are the heap-size multiples the paper sweeps.
var Fig5Factors = []float64{1, 1.5, 2, 3, 4}

// Fig5Row is one program's normalized execution times.
type Fig5Row struct {
	Program    string
	Normalized []float64 // coalloc time / baseline time per heap factor
	StdDev     []float64
}

// Fig5Data measures normalized execution time (co-allocation vs GenMS
// baseline) across heap sizes 1x–4x with the auto-selected sampling
// interval (paper Figure 5). The full (workload × heap factor × config
// × rep) grid fans out on the engine.
func Fig5Data(opt ExpOptions) ([]Fig5Row, error) {
	e := opt.engine()
	names, builders, err := opt.builders()
	if err != nil {
		return nil, err
	}
	type cell struct{ base, co *RepeatHandle }
	cells := make([][]cell, len(names))
	for i, name := range names {
		cells[i] = make([]cell, len(Fig5Factors))
		for j, f := range Fig5Factors {
			label := fmt.Sprintf("%s/%gx", name, f)
			cells[i][j].base = e.RepeatAsync(builders[i],
				RunConfig{HeapFactor: f, Seed: opt.Seed}, opt.Reps, label+"/base")
			cells[i][j].co = e.RepeatAsync(builders[i],
				RunConfig{HeapFactor: f, Coalloc: true, Seed: opt.Seed}, opt.Reps, label+"/coalloc")
		}
	}
	if err := e.Wait(); err != nil {
		return nil, err
	}
	rows := make([]Fig5Row, len(names))
	for i, name := range names {
		row := Fig5Row{Program: name}
		for j := range Fig5Factors {
			base, co := cells[i][j].base, cells[i][j].co
			row.Normalized = append(row.Normalized, co.Mean()/base.Mean())
			row.StdDev = append(row.StdDev, (base.StdDev()+co.StdDev())/(2*base.Mean()))
		}
		rows[i] = row
	}
	return rows, nil
}

// Fig5 renders the heap-size sweep.
func Fig5(opt ExpOptions) (string, error) {
	rows, err := Fig5Data(opt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: Execution time with co-allocation relative to baseline (auto interval)\n")
	fmt.Fprintf(&b, "%-11s", "program")
	for _, f := range Fig5Factors {
		fmt.Fprintf(&b, " %7.1fx", f)
	}
	fmt.Fprintf(&b, " %9s\n", "max σ")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s", r.Program)
		for _, v := range r.Normalized {
			fmt.Fprintf(&b, " %8.3f", v)
		}
		maxSD := 0.0
		for _, sd := range r.StdDev {
			if sd > maxSD {
				maxSD = sd
			}
		}
		fmt.Fprintf(&b, " %8.4f\n", maxSD)
	}
	fmt.Fprintf(&b, "(σ is the relative standard deviation over repetitions; the paper\n")
	fmt.Fprintf(&b, " reports these to be very small in practice, §6.1)\n")
	return b.String(), nil
}

// --- Figure 6: GenCopy vs GenMS+coalloc on db ---------------------------------

// Fig6Row holds db times for one heap factor.
type Fig6Row struct {
	Factor    float64
	GenMSBase float64
	GenMSCo   float64
	GenCopy   float64
}

// Fig6Data compares collectors on db across heap sizes (paper Figure
// 6): GenMS baseline, GenMS with co-allocation, and GenCopy. Values
// are mean cycles. All (heap factor × collector × rep) runs execute in
// parallel.
func Fig6Data(opt ExpOptions) ([]Fig6Row, error) {
	builder, err := Lookup("db")
	if err != nil {
		return nil, err
	}
	e := opt.engine()
	type cell struct{ base, co, gc *RepeatHandle }
	cells := make([]cell, len(Fig5Factors))
	for j, f := range Fig5Factors {
		label := fmt.Sprintf("db/%gx", f)
		cells[j].base = e.RepeatAsync(builder,
			RunConfig{HeapFactor: f, Seed: opt.Seed}, opt.Reps, label+"/genms")
		cells[j].co = e.RepeatAsync(builder,
			RunConfig{HeapFactor: f, Coalloc: true, Seed: opt.Seed}, opt.Reps, label+"/genms+co")
		cells[j].gc = e.RepeatAsync(builder,
			RunConfig{HeapFactor: f, Collector: core.GenCopy, Seed: opt.Seed}, opt.Reps, label+"/gencopy")
	}
	if err := e.Wait(); err != nil {
		return nil, err
	}
	rows := make([]Fig6Row, len(Fig5Factors))
	for j, f := range Fig5Factors {
		rows[j] = Fig6Row{
			Factor:    f,
			GenMSBase: cells[j].base.Mean(),
			GenMSCo:   cells[j].co.Mean(),
			GenCopy:   cells[j].gc.Mean(),
		}
	}
	return rows, nil
}

// Fig6 renders the collector comparison (normalized to GenMS baseline
// at each heap size).
func Fig6(opt ExpOptions) (string, error) {
	rows, err := Fig6Data(opt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: db — GenCopy vs GenMS with co-allocation (normalized to GenMS baseline)\n")
	fmt.Fprintf(&b, "%6s %12s %12s %12s %14s\n", "heap", "GenMS", "GenMS+co", "GenCopy", "co vs GenCopy")
	for _, r := range rows {
		fmt.Fprintf(&b, "%5.1fx %12.3f %12.3f %12.3f %13.1f%%\n",
			r.Factor, 1.0, r.GenMSCo/r.GenMSBase, r.GenCopy/r.GenMSBase,
			100*(1-r.GenMSCo/r.GenCopy))
	}
	return b.String(), nil
}

// --- Figure 7: runtime feedback on db ------------------------------------------

// Fig7Data runs db twice — monitoring only, and with co-allocation —
// while tracking String::value, and returns for each run the
// cumulative estimated miss series plus the coalloc run's per-period
// miss-rate series with its 3-period moving average (paper Figure 7:
// the dyn-coalloc curve bends when co-allocation kicks in; the
// baseline keeps climbing).
func Fig7Data(opt ExpOptions) (baseCum, coCum, rate, smooth *stats.Series, err error) {
	builder, err := Lookup("db")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	hotField := builder().HotFieldName

	e := opt.engine()
	hBase := e.RunAsync(builder, RunConfig{Monitoring: true, Interval: 2500, Seed: opt.Seed}, "db/monitor")
	hCo := e.RunAsync(builder, RunConfig{Coalloc: true, Interval: 2500, Seed: opt.Seed}, "db/coalloc")
	if err := e.Wait(); err != nil {
		return nil, nil, nil, nil, err
	}

	extract := func(h *RunHandle) (*stats.Series, *stats.Series, error) {
		for _, fc := range h.Sys().Monitor.HotFields() {
			if fc.Field.QualifiedName() == hotField {
				return &fc.Series, &fc.RateSeries, nil
			}
		}
		return nil, nil, fmt.Errorf("fig7: field %s received no samples", hotField)
	}

	baseRaw, _, err := extract(hBase)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	coRaw, coRate, err := extract(hCo)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return baseRaw.Cumulative(), coRaw.Cumulative(), coRate, coRate.Smoothed(3), nil
}

// Fig7 renders the feedback time series.
func Fig7(opt ExpOptions) (string, error) {
	baseCum, coCum, rate, smooth, err := Fig7Data(opt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7a: db — cumulative String::value misses (baseline vs dyn-coalloc)\n")
	fmt.Fprintf(&b, "%14s %14s      %14s %14s\n", "cycle", "baseline-cum", "cycle", "coalloc-cum")
	n := len(baseCum.Samples)
	if len(coCum.Samples) > n {
		n = len(coCum.Samples)
	}
	for i := 0; i < n; i++ {
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

// Fig8Data runs the Figure 8 scenario and returns the String::value
// miss-rate series and the policy's decision log. (A single run; it
// still executes on the engine so accounting and progress are
// uniform.)
func Fig8Data(opt ExpOptions) (*stats.Series, []string, error) {
	builder, err := Lookup("db")
	if err != nil {
		return nil, nil, err
	}
	e := opt.engine()
	h := e.RunAsync(builder, RunConfig{Coalloc: true, GapAtCycle: Fig8GapAtCycle, Interval: 2500, Seed: opt.Seed}, "db/gap")
	if err := e.Wait(); err != nil {
		return nil, nil, err
	}
	sys := h.Sys()
	for _, fc := range sys.Monitor.HotFields() {
		if fc.Field.QualifiedName() == "String::value" {
			return &fc.RateSeries, sys.Policy.Log(), nil
		}
	}
	return nil, nil, fmt.Errorf("fig8: String::value received no samples")
}

// Fig8 renders the poor-placement detection experiment.
func Fig8(opt ExpOptions) (string, error) {
	series, events, err := Fig8Data(opt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: db — misses for String objects with a deliberately poor placement\n")
	fmt.Fprintf(&b, "(one cache line of padding between String and char[]; the feedback loop\n")
	fmt.Fprintf(&b, " detects that the placement does not help and reverts to adjacent placement)\n\n")
	fmt.Fprintf(&b, "policy decisions:\n")
	for _, e := range events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	fmt.Fprintf(&b, "\n%14s %14s\n", "cycle", "misses/Mcycle")
	for _, s := range series.Samples {
		fmt.Fprintf(&b, "%14d %14.0f\n", s.Time, s.Value)
	}
	return b.String(), nil
}
