// Doc-citation check: every test, fuzz target, benchmark and make
// target that the reference documents cite is defined in the tree, as
// is every test a non-test Go comment cites, and every DESIGN.md
// section cited anywhere in the tree is a heading of DESIGN.md, so
// deleting or renaming one cannot leave a pointer to nothing. CHANGES.md
// and ROADMAP.md are history and plans, and are not checked.
package hpmvm_test

import (
	"go/parser"
	"go/token"
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

	// citedSection matches a citation of DESIGN.md's sections from
	// another file — "DESIGN.md §N", "DESIGN §N–M" — also where a
	// comment wraps between the name and the section.
	citedSection = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//|#)*§(\d+)(?:[–-](\d+))?`)
	// ownSection matches a section reference inside DESIGN.md, where a
	// bare "§N" is one of its own sections and "paper §N" the paper's.
	ownSection    = regexp.MustCompile(`(?:paper\s+)?§(\d+)(?:[–-](\d+))?`)
	designHeading = regexp.MustCompile(`(?m)^## (\d+)\. `)

	definedTest = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	makeTarget  = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
)

// staleTests returns the names that name no defined test. A cited name
// may be a -run prefix of a defined one.
func staleTests(names, tests []string) []string {
	var stale []string
	for _, name := range names {
		if !slices.ContainsFunc(tests, func(t string) bool { return strings.HasPrefix(t, name) }) {
			stale = append(stale, name)
		}
	}
	return stale
}

// staleCitations returns the citations in doc that name no defined
// test and no make target.
func staleCitations(doc string, tests []string, targets map[string]bool) []string {
	stale := staleTests(citedTest.FindAllString(doc, -1), tests)
	for _, span := range codeSpan.FindAllString(doc, -1) {
		for _, m := range citedMake.FindAllStringSubmatch(span, -1) {
			if !targets[m[1]] {
				stale = append(stale, "make "+m[1])
			}
		}
	}
	return stale
}

// staleCommentCitations returns the test names that the comments of the
// Go source src cite and the tree does not define.
func staleCommentCitations(path string, src []byte, tests []string) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, g := range f.Comments {
		names = append(names, citedTest.FindAllString(g.Text(), -1)...)
	}
	return staleTests(names, tests), nil
}

// danglingSections returns the section citations re finds in src that
// name no section of DESIGN.md; a reference to the paper is skipped.
// A range names two sections, both of which must exist.
func danglingSections(src string, re *regexp.Regexp, sections map[string]bool) []string {
	var dangling []string
	for _, m := range re.FindAllStringSubmatch(src, -1) {
		if strings.HasPrefix(m[0], "paper") {
			continue
		}
		if !sections[m[1]] || (m[2] != "" && !sections[m[2]]) {
			dangling = append(dangling, strings.Join(strings.Fields(m[0]), " "))
		}
	}
	return dangling
}

// designSections returns the numbers of DESIGN.md's "## N." headings.
func designSections(t *testing.T) map[string]bool {
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(string(src), -1) {
		sections[m[1]] = true
	}
	return sections
}

// walkGo calls fn with every Go file of the tree, outside the
// benchmark's build directory.
func walkGo(t *testing.T, fn func(path string, src []byte)) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fn(path, src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// definedNames collects every test, fuzz target and benchmark declared
// in the tree's _test.go files, and the Makefile's targets.
func definedNames(t *testing.T) ([]string, map[string]bool) {
	var tests []string
	walkGo(t, func(path string, src []byte) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		for _, m := range definedTest.FindAllStringSubmatch(string(src), -1) {
			tests = append(tests, m[1])
		}
	})
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
	sections := designSections(t)
	for _, doc := range citingDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range staleCitations(string(src), tests, targets) {
			t.Errorf("%s cites %s, which the tree does not define", doc, c)
		}
		re := citedSection
		if doc == "DESIGN.md" {
			re = ownSection
		}
		for _, c := range danglingSections(string(src), re, sections) {
			t.Errorf("%s cites %s, which is no section of DESIGN.md", doc, c)
		}
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range danglingSections(string(mk), citedSection, sections) {
		t.Errorf("Makefile cites %s, which is no section of DESIGN.md", c)
	}
	walkGo(t, func(path string, src []byte) {
		if path == "doc_citations_test.go" {
			return // its planted citations dangle on purpose
		}
		for _, c := range danglingSections(string(src), citedSection, sections) {
			t.Errorf("%s cites %s, which is no section of DESIGN.md", path, c)
		}
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		stale, err := staleCommentCitations(path, src, tests)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range stale {
			t.Errorf("%s: a comment cites %s, which the tree does not define", path, c)
		}
	})
}

// TestDocCitationsCatchStale plants stale citations next to live ones —
// in a document, in a Go comment, and of DESIGN.md's sections, in every
// shape the check reads: only the stale ones may be reported.
func TestDocCitationsCatchStale(t *testing.T) {
	tests, targets := definedNames(t)
	doc := "`make verify-sampling` runs TestSamplingNoWarmup; `make\nverify-lanes` and TestSnapshot stay.\n" +
		"Make sure prose is ignored.\n```\nmake nosuch-target\n```\n"
	got := staleCitations(doc, tests, targets)
	want := []string{"TestSamplingNoWarmup", "make verify-sampling", "make nosuch-target"}
	if !slices.Equal(got, want) {
		t.Errorf("stale citations = %q, want %q", got, want)
	}

	src := "package p\n\n// F is pinned by TestSnapshot and TestSamplingNoWarmup.\nfunc F() {}\n\n" +
		"const s = \"TestNotAComment\"\n"
	got, err := staleCommentCitations("p.go", []byte(src), tests)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"TestSamplingNoWarmup"}; !slices.Equal(got, want) {
		t.Errorf("stale comment citations = %q, want %q", got, want)
	}

	sections := designSections(t)
	src = "See DESIGN.md §2 and DESIGN §99; DESIGN.md §2–98.\n" +
		"\t// wrapped in DESIGN.md\n\t// §97. Makefile:\n# see DESIGN.md §3\n"
	got = danglingSections(src, citedSection, sections)
	if want := []string{"DESIGN §99", "DESIGN.md §2–98", "DESIGN.md // §97"}; !slices.Equal(got, want) {
		t.Errorf("dangling section citations = %q, want %q", got, want)
	}
	own := "As in paper §99.1, the lane (§3) and §2–5; §96 is not ours.\n"
	got = danglingSections(own, ownSection, sections)
	if want := []string{"§96"}; !slices.Equal(got, want) {
		t.Errorf("dangling own references = %q, want %q", got, want)
	}
}
