package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"hpmvm/internal/api"
	"hpmvm/internal/stats"
)

func TestCorrectArithmetic(t *testing.T) {
	// A box running at nominal speed leaves times alone.
	if got := correct(100, between(refNominalMS, refNominalMS)); got != 100 {
		t.Errorf("nominal box: corrected %v, want 100", got)
	}
	// A box twice as slow halves the reported time, whichever edge saw it.
	if got := correct(100, between(3*refNominalMS, refNominalMS)); got != 50 {
		t.Errorf("slow box: corrected %v, want 50", got)
	}
	// Slices inside the unit weigh as much as the brackets around it.
	w := between(refNominalMS, refNominalMS)
	w.add(4 * refNominalMS)
	if got := correct(100, w); math.Abs(got-50) > 1e-9 {
		t.Errorf("slice inside: corrected %v, want 50", got)
	}
	r := newRefKernel()
	if ms := r.bracket(); ms <= 0 {
		t.Errorf("bracket = %v ms, want a positive time", ms)
	}
	if p50, ratio := r.noise(); p50 <= 0 || ratio < 1 {
		t.Errorf("noise = %v, %v", p50, ratio)
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},  // exactly ten beyond
		{999, 0.99, 990, false},  // nine beyond
		{1100, 0.99, 1089, true}, // eleven beyond
		{21, 0.50, 11, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.p)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
		if got := reportable(seq(c.n), c.p); (got != 0) != c.ok {
			t.Errorf("reportable(n=%d, p=%v) = %v, reportable %v", c.n, c.p, got, c.ok)
		}
	}
	if m := stats.Median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := stats.Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// schedule renders the first n requests of every client's mixed schedule.
func schedule(seed int64, n int) []byte {
	var buf bytes.Buffer
	for client := 0; client < loadClients; client++ {
		s := newMixSchedule(seed, client)
		for i := 0; i < n; i++ {
			req, class := s.next()
			body, _ := json.Marshal(req)
			buf.Write(body)
			buf.WriteByte(byte('0' + class))
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

func TestScheduleSeeded(t *testing.T) {
	a, b, c := schedule(7, 800), schedule(7, 800), schedule(8, 800)
	if !bytes.Equal(a, b) {
		t.Error("equal seeds gave different schedules")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	// The mix is exact in every block of eight, and no unique request
	// repeats within a run.
	s := newMixSchedule(7, 1)
	seen := map[string]bool{}
	for block := 0; block < 50; block++ {
		var counts [numClasses]int
		for i := 0; i < 8; i++ {
			req, class := s.next()
			counts[class]++
			if class != classHot {
				body, _ := json.Marshal(req)
				if seen[string(body)] {
					t.Fatalf("request %s repeats", body)
				}
				seen[string(body)] = true
			}
		}
		if counts != [numClasses]int{4, 2, 1, 1} {
			t.Fatalf("block %d has mix %v, want [4 2 1 1]", block, counts)
		}
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaredNamesMatchBenchmarkFile keeps the names the code emits and the
// names BENCHMARK.json declares equal, in both directions.
func TestDeclaredNamesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)

	inFile := map[string]bool{}
	for _, w := range f.Workloads {
		inFile["workload "+w.Name] = true
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is not a valid name", w.Name)
		}
		if !inFile["workload "+w.Name] {
			t.Errorf("workload %s is run by the code but missing from BENCHMARK.json", w.Name)
		}
		delete(inFile, "workload "+w.Name)
	}
	for name := range inFile {
		t.Errorf("%s is declared in BENCHMARK.json but not run by the code", name)
	}

	type decl struct {
		unit, better string
		bound        float64
	}
	check := func(kind string, code []metricDef, file map[string]decl) {
		for _, d := range code {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s metric name %q is not a valid name", kind, d.Name)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s metric %s: unit %q is not a valid unit", kind, d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s metric %s: better is %q", kind, d.Name, d.Better)
			}
			got, ok := file[d.Name]
			if !ok {
				t.Errorf("%s metric %s is emitted by the code but missing from BENCHMARK.json", kind, d.Name)
				continue
			}
			if want := (decl{d.Unit, d.Better, d.Bound}); got != want {
				t.Errorf("%s metric %s: BENCHMARK.json says %+v, the code %+v", kind, d.Name, got, want)
			}
			delete(file, d.Name)
		}
		for name := range file {
			t.Errorf("%s metric %s is declared in BENCHMARK.json but not emitted by the code", kind, name)
		}
	}
	e2e := map[string]decl{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = decl{m.Unit, m.Better, m.Bound}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layers := map[string]decl{}
	for _, m := range f.PerLayer {
		layers[m.Name] = decl{m.Unit, m.Better, 0}
	}
	check("end-to-end", endToEnd, e2e)
	check("per-layer", perLayer, layers)
	if len(declared) != len(endToEnd)+len(perLayer) {
		t.Error("a metric name is declared twice")
	}
	if d, ok := declared["setup_s"]; !ok || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better; declared %+v", d)
	}
	if len(f.PerLayer) > 128 || len(f.EndToEnd) > 16 || len(f.Workloads) > 8 {
		t.Error("BENCHMARK.json declares more than the driver accepts")
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", f.Paths)
	}
}

// TestCheckerHasTeeth feeds the verifier the three ways a response can be
// wrong and requires each to raise failed_frac and the exit status.
func TestCheckerHasTeeth(t *testing.T) {
	req := hotRequest(1)
	good, err := json.Marshal(api.RunResponse{Version: api.Version, Workload: serveProg, Cycles: 7881886, Instret: 2663725})
	if err != nil {
		t.Fatal(err)
	}
	good = append(good, '\n')

	fresh := func() (*report, *verifier) {
		rep := newReport(io.Discard)
		v := newVerifier(rep)
		if n := v.response(req, &api.RunResult{Body: good, Cache: "miss"}, nil, false); n != 2663725 {
			t.Fatalf("a correct response delivered %v instructions, want 2663725", n)
		}
		v.response(req, &api.RunResult{Body: good, Cache: "hit"}, nil, true)
		v.cycles(good, 7881886)
		if rep.failed != 0 {
			t.Fatalf("correct responses failed %d checks", rep.failed)
		}
		return rep, v
	}
	mustFail := func(name string, rep *report) {
		t.Helper()
		res, err := rep.result(modeFull)
		if err != nil {
			t.Fatal(err)
		}
		if rep.failedFrac() <= 0 || res.Correct || exitCode(res) == 0 {
			t.Errorf("%s: failed_frac %v, correct %v, exit %d — the checker did not bite",
				name, rep.failedFrac(), res.Correct, exitCode(res))
		}
	}

	rep, v := fresh()
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x01
	v.response(req, &api.RunResult{Body: flipped, Cache: "hit"}, nil, true)
	mustFail("one flipped byte", rep)

	rep, v = fresh()
	v.cycles(good, 7881887)
	mustFail("wrong cycles", rep)

	rep, v = fresh()
	v.response(req, &api.RunResult{Body: good, Cache: "miss"}, nil, true)
	mustFail("miss where a hit is required", rep)

	rep, v = fresh()
	v.response(req, nil, &api.Error{Code: api.CodeQueueFull, Message: "refused"}, true)
	mustFail("refused request", rep)
}

// TestQuickSuite runs every workload in -quick mode, and two of them traced
// with the probes, so that the benchmark cannot rot unnoticed.
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole benchmark in quick mode")
	}
	measured := map[string]bool{}
	run := func(workload, trace string) {
		t.Helper()
		var out bytes.Buffer
		o := options{workload: workload, seed: 1, seconds: 1, trace: trace, quick: true}
		rep := runWorkload(context.Background(), o, time.Now(), &out)
		for name := range rep.values {
			measured[name] = true
		}
		mode := modeEndToEnd
		if o.traced() {
			mode = modePerLayer
		}
		res, err := rep.result(mode)
		if err != nil {
			t.Fatalf("%s: %v\n%s", workload, err, out.String())
		}
		if exitCode(res) != 0 || res.Attempted < 1 {
			t.Fatalf("%s: attempted %d, failed %d\n%s", workload, res.Attempted, res.Failed, out.String())
		}
		want := endToEnd
		if o.traced() {
			want = perLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics in the result line, want %d", workload, len(res.Metrics), len(want))
		}
		for _, d := range endToEnd {
			if v := rep.values[d.Name]; v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", workload, d.Name, v)
			}
		}
		var line bytes.Buffer
		if err := printResult(&line, res); err != nil {
			t.Errorf("%s: %v", workload, err)
		}
		if o.traced() {
			ordered(t, rep, "client.run_hit_us", "serve.handler_hit_us", "serve.runbytes_hit_us")
			ordered(t, rep, "fleet.remote_hit_us", "fleet.local_hit_us")
		}
	}
	for _, w := range workloads {
		run(w.Name, "0")
	}
	run("sim-monitored", "1")
	run("fleet-hot", t.TempDir()+"/spans.json")
	for name := range declared {
		if !measured[name] {
			t.Errorf("metric %s is declared but no workload measured it", name)
		}
	}
}

// ordered requires the named metrics to be measured and non-increasing:
// each layer contains the next.
func ordered(t *testing.T, rep *report, names ...string) {
	t.Helper()
	vals := make([]float64, len(names))
	for i, n := range names {
		vals[i] = rep.values[n]
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(vals))) || vals[len(vals)-1] <= 0 {
		t.Errorf("%v = %v, want each to contain the next", names, vals)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer("w")
	tr.begin("ignored")() // a tracer starts switched off
	tr.enable(true)
	tr.nextUnit()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	time.Sleep(2 * time.Millisecond)
	inner()
	time.Sleep(time.Millisecond)
	outer()
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].UnitID != 1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	var self float64
	n := 0
	for _, r := range tr.selfTimes() {
		if r.Name == "outer" {
			self, n = r.SelfMS, r.Count
		}
	}
	total := float64(tr.spans[0].EndNS-tr.spans[0].StartNS) / 1e6
	innerTotal := float64(tr.spans[1].EndNS-tr.spans[1].StartNS) / 1e6
	if n != 1 || math.Abs(self-(total-innerTotal)) > 1e-9 || self <= 0 {
		t.Errorf("outer self time %v ms, want %v", self, total-innerTotal)
	}
	path := t.TempDir() + "/t.json"
	if err := tr.write(path, map[string]float64{"count": 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil || len(f.Spans) != 2 || len(f.SelfTimes) != 2 {
		t.Errorf("trace file: %v, %+v", err, f)
	}
}

func TestCompareSets(t *testing.T) {
	set := func(rps, cycles, errPct float64) map[string]result {
		s := map[string]result{}
		for _, w := range workloads {
			s[w.Name] = result{Correct: true, Metrics: map[string]metric{
				"rps":             {Value: rps, Unit: "1/s"},
				"sim_cycles":      {Value: cycles, Unit: "cycles"},
				"est_err_pct_max": {Value: errPct, Unit: "%"},
				"failed_frac":     {Value: 0, Unit: "ratio"},
			}}
		}
		return s
	}
	var out bytes.Buffer
	if bad := compareSets(set(100, 1000, 0.30), set(95, 1000, 0.35), &out); bad != 0 {
		t.Errorf("sets within their bounds: %d out of bound\n%s", bad, out.String())
	}
	// rps 30 % lower on every workload.
	if bad := compareSets(set(100, 1000, 0.30), set(70, 1000, 0.30), &out); bad != len(workloads) {
		t.Errorf("rps 30%% lower: %d out of bound, want %d", bad, len(workloads))
	}
	// The estimate's error is bounded in points, not as a share.
	if bad := compareSets(set(100, 1000, 0.30), set(100, 1000, 0.45), &out); bad != len(workloads) {
		t.Errorf("estimate 0.15 points worse: %d out of bound, want %d", bad, len(workloads))
	}
}
