// Doc-citation check: every test, fuzz target, benchmark and make
// target that the reference documents cite is defined in the tree, so
// deleting or renaming one cannot leave a document pointing at nothing.
// CHANGES.md and ROADMAP.md are history and plans, and are not checked.
package hpmvm_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// citingDocs are the documents held to their citations.
var citingDocs = []string{
	"DESIGN.md",
	"README.md",
	"EXPERIMENTS.md",
	filepath.Join("results", "README.md"),
	filepath.Join(".claude", "skills", "verify", "SKILL.md"),
}

var (
	// citedTest matches a test, fuzz target or benchmark name anywhere
	// in a document; the capital after the prefix keeps out prose such
	// as "Testing" or "Benchmarks".
	citedTest = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	// codeSpan matches a fenced block or an inline code span, which may
	// wrap lines; make targets are read only inside them, where "make"
	// is a command and not an English verb.
	codeSpan  = regexp.MustCompile("(?s)```.*?```|`[^`]+`")
	citedMake = regexp.MustCompile(`\bmake\s+([a-z][a-z0-9-]*)`)

	definedTest = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	makeTarget  = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
)

// staleCitations returns the citations in doc that name no defined
// test and no make target. A cited test name may be a -run prefix of a
// defined one.
func staleCitations(doc string, tests []string, targets map[string]bool) []string {
	var stale []string
	for _, name := range citedTest.FindAllString(doc, -1) {
		if !slices.ContainsFunc(tests, func(t string) bool { return strings.HasPrefix(t, name) }) {
			stale = append(stale, name)
		}
	}
	for _, span := range codeSpan.FindAllString(doc, -1) {
		for _, m := range citedMake.FindAllStringSubmatch(span, -1) {
			if !targets[m[1]] {
				stale = append(stale, "make "+m[1])
			}
		}
	}
	return stale
}

// definedNames collects every test, fuzz target and benchmark declared
// in the tree's _test.go files, and the Makefile's targets.
func definedNames(t *testing.T) ([]string, map[string]bool) {
	var tests []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range definedTest.FindAllStringSubmatch(string(src), -1) {
			tests = append(tests, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	return tests, targets
}

func TestDocCitations(t *testing.T) {
	tests, targets := definedNames(t)
	for _, doc := range citingDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range staleCitations(string(src), tests, targets) {
			t.Errorf("%s cites %s, which the tree does not define", doc, c)
		}
	}
}

// TestDocCitationsCatchStale plants stale citations next to live ones:
// only the stale ones may be reported.
func TestDocCitationsCatchStale(t *testing.T) {
	tests, targets := definedNames(t)
	doc := "`make verify-sampling` runs TestSamplingNoWarmup; `make\nverify-lanes` and TestSnapshot stay.\n" +
		"Make sure prose is ignored.\n```\nmake nosuch-target\n```\n"
	got := staleCitations(doc, tests, targets)
	want := []string{"TestSamplingNoWarmup", "make verify-sampling", "make nosuch-target"}
	if !slices.Equal(got, want) {
		t.Errorf("stale citations = %q, want %q", got, want)
	}
}
