// Command benchpairs compares one workload of the repo benchmark at a
// parent revision with the current checkout, in alternating pairs of
// runs: the measurement a speed claim needs (ten pairs or more, the
// change ahead in nine tenths of them, the median gain beyond the
// parent's own quartile spread) and the check that no end-to-end
// metric got worse than its bound.
//
// It exports the parent revision with `git archive` into
// .bench_build/pairs/, builds both harnesses as benchmark/run.sh does
// (`go build ./benchmark`, GOCACHE under .bench_build, GOTOOLCHAIN=local)
// and runs pair i at seed i for BENCHMARK.json's run_seconds, the
// parent first in odd pairs and the change first in even ones. It
// prints every pair's end-to-end metrics, then per metric the pairs
// the change is ahead in, out of all pairs run, and each side's median
// and quartiles. A pair with a failed or incorrect run is printed as
// failed and feeds no median, but still counts against the claim. It
// flags a sim_cycles value that differs within a pair, a median beyond
// the metric's BENCHMARK.json bound, a failed run and a larger failed
// share, and exits 1 when it flagged anything. It reads BENCHMARK.json and
// benchmark/ and writes only under .bench_build/.
//
// Usage, from the root of the repository:
//
//	go run ./scripts/benchpairs -parent HEAD~1 -workload sim-exact -pairs 10
//
// or `make bench-pairs PARENT=HEAD~1 WORKLOAD=sim-exact PAIRS=10`.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runResult is the JSON line a single-workload benchmark run ends with.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	parent := flag.String("parent", "", "git revision to compare against (required)")
	workload := flag.String("workload", "sim-exact", "benchmark workload to run")
	pairs := flag.Int("pairs", 10, "number of parent/change pairs; pair i runs at seed i")
	flag.Parse()
	if *parent == "" || *pairs < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchpairs -parent REV [-workload NAME] [-pairs N]")
		os.Exit(2)
	}
	flagged, err := run(*parent, *workload, *pairs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchpairs: %v\n", err)
		os.Exit(1)
	}
	if flagged {
		os.Exit(1)
	}
}

func run(parentRev, workload string, pairs int) (flagged bool, err error) {
	var decl struct {
		RunSeconds float64    `json:"run_seconds"`
		EndToEnd   []endToEnd `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("run from the root of the repository: %w", err)
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}

	root, err := os.Getwd()
	if err != nil {
		return false, err
	}
	buildDir := filepath.Join(root, ".bench_build", "pairs")
	sha, err := output(root, "git", "rev-parse", "--verify", parentRev+"^{commit}")
	if err != nil {
		return false, fmt.Errorf("resolve %s: %w", parentRev, err)
	}
	sha = strings.TrimSpace(sha)
	parentDir := filepath.Join(buildDir, "parent-"+sha[:12])
	if err := export(root, sha, parentDir); err != nil {
		return false, fmt.Errorf("export %s: %w", sha[:12], err)
	}
	sides := []struct{ name, dir, bin string }{
		{"parent", parentDir, filepath.Join(buildDir, "parent.bin")},
		{"change", root, filepath.Join(buildDir, "change.bin")},
	}
	for _, s := range sides {
		if err := build(root, s.dir, s.bin); err != nil {
			return false, fmt.Errorf("build the %s harness: %w", s.name, err)
		}
	}

	fmt.Printf("benchpairs: %s, parent %s against the working tree, %d pairs at seeds 1..%d, %g s per run\n",
		workload, sha[:12], pairs, pairs, decl.RunSeconds)
	values := map[string][2][]float64{} // metric → parent's and change's values, pair by pair
	var attempted, failed [2]int
	for i := 1; i <= pairs; i++ {
		order := []int{0, 1}
		if i%2 == 0 {
			order = []int{1, 0}
		}
		var res [2]runResult
		pairFailed := false
		for _, side := range order {
			s := sides[side]
			r, err := runOnce(s.bin, s.dir, workload, i, decl.RunSeconds)
			if err != nil {
				fmt.Printf("pair %d: %s run failed: %v\n", i, s.name, err)
				pairFailed = true
			}
			res[side] = r
			attempted[side] += r.Attempted
			failed[side] += r.Failed
		}
		if pairFailed {
			// Its metrics feed no median; it still counts as a pair run.
			fmt.Printf("pair %d (seed %d, %s first): FAILED\n", i, i, sides[order[0]].name)
			flagged = true
			continue
		}
		fmt.Printf("pair %d (seed %d, %s first)\n", i, i, sides[order[0]].name)
		for _, m := range decl.EndToEnd {
			p, okP := res[0].Metrics[m.Name]
			c, okC := res[1].Metrics[m.Name]
			if !okP || !okC {
				continue
			}
			v := values[m.Name]
			v[0], v[1] = append(v[0], p.Value), append(v[1], c.Value)
			values[m.Name] = v
			note := ""
			if m.Name == "sim_cycles" && p.Value != c.Value {
				note = "  SIM_CYCLES DIFFER"
				flagged = true
			}
			fmt.Printf("  %-17s %14s %14s %+8.2f %%%s\n", m.Name, format(p.Value), format(c.Value), 100*relative(p.Value, c.Value), note)
		}
	}

	fmt.Println("\nper metric: pairs the change is ahead in, each side's median [Q1, Q3], the change in the median")
	for _, m := range decl.EndToEnd {
		v, ok := values[m.Name]
		if !ok {
			continue
		}
		c := compare(m, pairs, v[0], v[1])
		flagged = flagged || c.beyondBound
		fmt.Println(c)
	}
	share := func(side int) float64 {
		if attempted[side] == 0 {
			return 0
		}
		return float64(failed[side]) / float64(attempted[side])
	}
	fmt.Printf("failed share: parent %d/%d, change %d/%d\n", failed[0], attempted[0], failed[1], attempted[1])
	if share(1) > share(0) {
		fmt.Println("FLAG: the change fails a larger share of operations")
		flagged = true
	}
	return flagged, nil
}

// relative is (b - a) / a, or 0 when a is 0.
func relative(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}

// output runs a command in dir and returns its standard output.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	return string(out), err
}

// export writes the tree of commit sha into dir, replacing what an
// earlier export left there.
func export(root, sha, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tarball := dir + ".tar"
	defer os.Remove(tarball)
	if _, err := output(root, "git", "archive", "-o", tarball, sha); err != nil {
		return err
	}
	_, err := output(root, "tar", "-xf", tarball, "-C", dir)
	return err
}

// build compiles dir's benchmark harness into bin the way
// benchmark/run.sh does, with the build cache under .bench_build.
func build(root, dir, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./benchmark")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOCACHE="+filepath.Join(root, ".bench_build", "gocache"), "GOTOOLCHAIN=local")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

// runOnce runs one untraced benchmark run and parses its result line. A run that reports itself incorrect is
// returned with an error.
func runOnce(bin, dir, workload string, seed int, seconds float64) (runResult, error) {
	cmd := exec.Command(bin, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	var res runResult
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("no result line (%v): %q", errors.Join(runErr, err), last)
	}
	if runErr != nil || !res.Correct {
		return res, fmt.Errorf("correct=%v, %d of %d checks failed (%v)", res.Correct, res.Failed, res.Attempted, runErr)
	}
	return res, nil
}
