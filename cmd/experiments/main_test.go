package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpmvm/internal/bench"
)

func TestBenchJSONIsExpRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "bench.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table2", "-workloads", "compress", "-progress=false", "-bench-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table 2: Space overhead") {
		t.Errorf("no table on stdout:\n%s", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var record []bench.ExpRun
	if err := dec.Decode(&record); err != nil {
		t.Fatalf("-bench-json is not []bench.ExpRun: %v\n%s", err, data)
	}
	if len(record) != 1 || record[0].Name != "table2" || record[0].Runs != 1 || record[0].RunTime <= 0 {
		t.Errorf("record = %+v, want one table2 entry with one timed run", record)
	}
	if record[0].Output != "" {
		t.Error("the rendered table leaked into the perf record")
	}
}

// Misuse must end in a non-zero exit and one message on stderr, never
// in a table (of NaNs, or of a workload nobody asked for) or a panic.
func TestMisuseFailsWithoutATable(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig2", "-workloads", "db", "-reps", "0"},
		{"-exp", "fig5", "-workloads", "db", "-reps", "-1"},
		{"-exp", "fig8", "-workloads", "nosuch"},
		{"-exp", "nosuch"},
		{"-exp", "fig4,nosuch"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append(args, "-progress=false"), &stdout, &stderr)
		if code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "experiments: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr is not one message: %q", args, msg)
		}
	}
}

// The lane experiment, fig2, refuses no repetitions with exit 1 and
// the reason, instead of printing a −100 % cell: a lane pass with no
// lanes has no mean to compare against the baseline.
func TestLaneExperimentsRefuseNoReps(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "fig2", "-workloads", "compress", "-reps", "0", "-progress=false"}, &stdout, &stderr)
	if code != 1 || stdout.Len() != 0 {
		t.Errorf("fig2 -reps 0: exit %d, stdout %q", code, stdout.String())
	}
	if want := "experiments: fig2: reps must be at least 1, got 0\n"; stderr.String() != want {
		t.Errorf("fig2 -reps 0: stderr %q, want %q", stderr.String(), want)
	}
}

// The profile is flushed by a deferred call, so a failing experiment
// must return through run rather than exit under it.
func TestProfileWrittenOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "nosuch", "-progress=false", "-cpuprofile", path}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown experiment exited 0")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile not flushed on the error path: %v", err)
	}
}
