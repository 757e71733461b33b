package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// runChild runs one workload in its own process (so that peak_rss_mb and
// setup_s are that workload's alone), passes its output through, and returns
// the result line it ended with.
func runChild(o options, workload, trace string, out io.Writer) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, fmt.Errorf("locate own binary: %w", err)
	}
	args := []string{
		"-workload", workload, "-full", "-trace", trace,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()

	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(out, last)
		}
		last = sc.Text()
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		fmt.Fprintln(out, last)
		return res, fmt.Errorf("%s: no result line (%v; exit: %v)", workload, err, runErr)
	}
	if runErr != nil && res.Correct {
		return res, fmt.Errorf("%s: %w", workload, runErr)
	}
	return res, nil
}

// runSet runs every workload once untraced and, unless quick or comparing
// sets, once traced. It returns the merged metrics per workload.
func runSet(o options, withTrace bool, out io.Writer) (map[string]result, error) {
	set := map[string]result{}
	for _, w := range workloads {
		res, err := runChild(o, w.Name, "0", out)
		if err != nil {
			return set, err
		}
		if withTrace {
			trace := "1"
			if f := o.spanFile(); f != "" {
				trace = strings.TrimSuffix(f, ".json") + "." + w.Name + ".json"
			}
			layers, err := runChild(o, w.Name, trace, out)
			if err != nil {
				return set, err
			}
			// End-to-end numbers always come from the untraced run.
			for name, m := range layers.Metrics {
				if _, have := res.Metrics[name]; !have || name == "trace.overhead_pct" {
					res.Metrics[name] = m
				}
			}
			res.Attempted += layers.Attempted
			res.Failed += layers.Failed
			res.Correct = res.Correct && layers.Correct
		}
		set[w.Name] = res
	}
	return set, nil
}

// compared are the metrics -repeat holds two sets against: every end-to-end
// metric with the bound BENCHMARK.json fixes, and the workload-specific
// user-visible ones with the benchmark's own.
func compared() []metricDef {
	defs := append([]metricDef(nil), endToEnd...)
	names := make([]string, 0, len(ownBounds))
	for name := range ownBounds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := declared[name]
		d.Bound = ownBounds[name]
		defs = append(defs, d)
	}
	return defs
}

// worseBy is how much worse b is than a in the metric's bad direction: as a
// share of a, or in points for a metric that is itself a percentage.
func worseBy(d metricDef, a, b float64) float64 {
	diff := b - a
	if d.Better == "higher" {
		diff = -diff
	}
	if d.Unit == "%" {
		return diff
	}
	if a == 0 {
		if diff == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return diff / math.Abs(a)
}

// compareSets prints, per metric and workload, both sets' values, their
// relative difference and whether the second is within the bound of the
// first. It returns the number of metrics out of bound.
func compareSets(a, b map[string]result, out io.Writer) int {
	bad := 0
	defs := compared()
	fmt.Fprintf(out, "\n%-14s %-18s %16s %16s %9s %7s  %s\n", "workload", "metric", "set 1", "set 2", "diff", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range defs {
			m1, ok1 := a[w.Name].Metrics[d.Name]
			m2, ok2 := b[w.Name].Metrics[d.Name]
			if !ok1 || !ok2 || (m1.Value == 0 && m2.Value == 0 && d.Bound != 0) {
				continue // not measured on this workload
			}
			verdict := "PASS"
			// Two runs of the same code must agree in both directions.
			if math.Max(worseBy(d, m1.Value, m2.Value), worseBy(d, m2.Value, m1.Value)) > d.Bound {
				verdict = "FAIL"
				bad++
			}
			bound := fmt.Sprintf("%.1f%%", 100*d.Bound)
			if d.Unit == "%" {
				bound = fmt.Sprintf("%.1fpt", d.Bound)
			}
			fmt.Fprintf(out, "%-14s %-18s %16.6g %16.6g %+8.2f%% %7s  %s\n",
				w.Name, d.Name, m1.Value, m2.Value, 100*relDiff(m1.Value, m2.Value), bound, verdict)
		}
	}
	return bad
}

// summary is the last line of a -workload all run.
type summary struct {
	RefVersion   int                          `json:"ref_version"`
	RefNominalMS float64                      `json:"ref_nominal_ms"`
	NProc        int                          `json:"nproc"`
	GOMAXPROCS   int                          `json:"gomaxprocs"`
	Go           string                       `json:"go"`
	Seed         int64                        `json:"seed"`
	Correct      bool                         `json:"correct"`
	Workloads    map[string]map[string]metric `json:"workloads"`
	OutOfBound   int                          `json:"out_of_bound"`
	Claim        *string                      `json:"claim"` // the benchmark measures; it claims nothing
}

// runAll runs every workload, each in its own process, and prints every
// metric by name with its unit. It returns the process exit status.
func runAll(o options, out io.Writer) int {
	fmt.Fprintf(out, "benchmark: all workloads seed=%d seconds=%g nproc=%d GOMAXPROCS=%d %s ref_version=%d ref_nominal_ms=%g\n",
		o.seed, o.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), refVersion, refNominalMS)
	sum := summary{
		RefVersion: refVersion, RefNominalMS: refNominalMS,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Seed: o.seed, Correct: true, Workloads: map[string]map[string]metric{},
	}
	var sets []map[string]result
	for i := 0; i < o.repeat || i == 0; i++ {
		set, err := runSet(o, !o.quick && o.repeat <= 1, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		sets = append(sets, set)
	}
	last := sets[len(sets)-1]
	for _, w := range workloads {
		res := last[w.Name]
		sum.Correct = sum.Correct && res.Correct
		sum.Workloads[w.Name] = res.Metrics
		fmt.Fprintf(out, "\n%s: attempted %d, failed %d\n", w.Name, res.Attempted, res.Failed)
		names := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, "  %-36s %16.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
		}
	}
	for i := 1; i < len(sets); i++ {
		sum.OutOfBound += compareSets(sets[i-1], sets[i], out)
		for _, res := range sets[i-1] {
			sum.Correct = sum.Correct && res.Correct
		}
	}
	data, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: encode summary: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", data)
	if !sum.Correct || sum.OutOfBound > 0 {
		return 1
	}
	return 0
}
