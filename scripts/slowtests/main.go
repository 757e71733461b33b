// Command slowtests runs `go test -json` and prints what `go test`
// prints without -json — one ok, FAIL or "no test files" line per
// package, the output of failed tests and of packages that did not
// build — followed by the ten slowest top-level tests and their times.
// It exits with go test's exit status.
//
// Usage, from the root of the repository:
//
//	go run ./scripts/slowtests [-go go] [--] [go test arguments]
//
// `make test` runs it on ./..., so every `make ci` log lists the ten
// slowest tests.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

func main() {
	goCmd := flag.String("go", "go", "go command to run")
	flag.Parse()
	cmd := exec.Command(*goCmd, append([]string{"test", "-json"}, flag.Args()...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		fmt.Fprintf(os.Stderr, "slowtests: %v\n", err)
		os.Exit(1)
	}
	if err := cmd.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "slowtests: %v\n", err)
		os.Exit(1)
	}
	s := newSummary()
	if err := s.read(out, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "slowtests: %v\n", err)
	}
	status := 0
	if err := cmd.Wait(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			fmt.Fprintf(os.Stderr, "slowtests: %v\n", err)
			os.Exit(1)
		}
		status = exit.ExitCode()
		fmt.Println("FAIL")
	}
	s.slowest(os.Stdout, 10)
	os.Exit(status)
}

// event is one line of `go test -json` (cmd/test2json), build events
// included.
type event struct {
	Action  string
	Package string
	Test    string
	Elapsed float64
	Output  string
}

// timing is one finished top-level test.
type timing struct {
	pkg, test string
	seconds   float64
}

// summary turns the event stream back into go test's own report and
// collects the top-level tests' times.
type summary struct {
	buffered map[[2]string][]string // (package, test) → output lines so far; test "" is the package's own
	tests    map[string][]string    // package → its tests in the order their output began
	times    []timing
}

func newSummary() *summary {
	return &summary{buffered: map[[2]string][]string{}, tests: map[string][]string{}}
}

// read consumes the event stream from r and writes the report to w as
// the events finish: a failed test's output when it fails, a package's
// result line when it ends (its whole output when it failed), build
// output as it comes. A line that is not an event is copied through.
func (s *summary) read(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Action == "" {
			fmt.Fprintln(w, sc.Text())
			continue
		}
		s.handle(ev, w)
	}
	return sc.Err()
}

func (s *summary) handle(ev event, w io.Writer) {
	key := [2]string{ev.Package, ev.Test}
	switch ev.Action {
	case "build-output":
		fmt.Fprint(w, ev.Output)
	case "output":
		if _, ok := s.buffered[key]; !ok && ev.Test != "" {
			s.tests[ev.Package] = append(s.tests[ev.Package], ev.Test)
		}
		s.buffered[key] = append(s.buffered[key], ev.Output)
	case "pass", "fail", "skip":
		lines := s.buffered[key]
		delete(s.buffered, key)
		switch {
		case ev.Test != "":
			if !strings.Contains(ev.Test, "/") {
				s.times = append(s.times, timing{ev.Package, ev.Test, ev.Elapsed})
			}
			if ev.Action == "fail" {
				printLines(w, lines)
			}
		case ev.Action == "fail":
			// A test that never ended (a timeout, a crash of the test
			// binary) holds the panic that failed the package.
			for _, test := range s.tests[ev.Package] {
				printLines(w, s.buffered[[2]string{ev.Package, test}])
				delete(s.buffered, [2]string{ev.Package, test})
			}
			delete(s.tests, ev.Package)
			printLines(w, lines)
		default:
			// A package that passed or has no tests prints only its
			// result line, as go test does.
			delete(s.tests, ev.Package)
			for _, l := range lines {
				if strings.HasPrefix(l, "ok ") || strings.HasPrefix(l, "? ") {
					fmt.Fprint(w, l)
				}
			}
		}
	}
}

// printLines writes the output lines of a failed test or package,
// without the === markers of the verbose mode -json runs tests in.
func printLines(w io.Writer, lines []string) {
	for _, l := range lines {
		if !strings.HasPrefix(l, "=== ") {
			fmt.Fprint(w, l)
		}
	}
}

// slowest writes the n slowest top-level tests, slowest first.
func (s *summary) slowest(w io.Writer, n int) {
	sort.SliceStable(s.times, func(i, j int) bool { return s.times[i].seconds > s.times[j].seconds })
	if len(s.times) < n {
		n = len(s.times)
	}
	if n <= 0 {
		return
	}
	fmt.Fprintln(w, "slowest tests:")
	for _, t := range s.times[:n] {
		fmt.Fprintf(w, "%8.2fs  %s  %s\n", t.seconds, t.pkg, t.test)
	}
}
