package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metric is one reported value, in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects what one workload run measured and checked. Every
// correctness check goes through check, so failed/attempted is the
// failed_frac of the run and a single failure makes the process exit
// non-zero.
type report struct {
	out       io.Writer // human-readable lines
	attempted int
	failed    int
	values    map[string]float64
}

func newReport(out io.Writer) *report {
	return &report{out: out, values: map[string]float64{}}
}

// check records one attempted operation or correctness check.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintf(r.out, "FAIL: "+format+"\n", args...)
		}
	}
	return ok
}

// set records a metric value by its declared name.
func (r *report) set(name string, v float64) {
	if _, ok := declared[name]; !ok {
		panic("benchmark: metric " + name + " is not declared in metrics.go")
	}
	r.values[name] = v
}

func (r *report) logf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// failedFrac is failed over attempted.
func (r *report) failedFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// resultMode selects which metrics a result line carries.
type resultMode int

const (
	modeEndToEnd resultMode = iota // untraced run: every end-to-end metric
	modePerLayer                   // traced run: every per-layer metric
	modeFull                       // everything measured, for -workload all
)

// result renders the run for the driver. A per-layer metric the workload
// does not exercise reads 0; a missing end-to-end metric is a bug.
func (r *report) result(mode resultMode) (result, error) {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	switch mode {
	case modeFull:
		for name, v := range r.values {
			res.Metrics[name] = metric{Value: v, Unit: declared[name].Unit}
		}
	case modePerLayer:
		for _, d := range perLayer {
			res.Metrics[d.Name] = metric{Value: r.values[d.Name], Unit: d.Unit}
		}
	default:
		for _, d := range endToEnd {
			v, ok := r.values[d.Name]
			if !ok {
				return res, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		}
	}
	return res, nil
}

// printValues lists every measured metric with its unit, sorted by name.
func (r *report) printValues() {
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.logf("  %-36s %16.6g %s", n, r.values[n], declared[n].Unit)
	}
}

// exitCode is the process exit status for a result: non-zero on any
// correctness failure.
func exitCode(res result) int {
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// printResult writes res as the single last line of output.
func printResult(w io.Writer, res result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
