package pixel_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	declaredTestRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	citedTestRE    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	citedFileRE    = regexp.MustCompile(`[\w./-]*_test\.go`)
)

// TestCitedTestsExist fails when a document that describes the code
// (README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md, BENCH_*.json)
// cites a test, benchmark or fuzz target that no _test.go file
// declares, or a _test.go path that does not exist. ROADMAP.md and
// CHANGES.md are history and name deleted tests on purpose.
func TestCitedTestsExist(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declaredTestRE.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	for _, pattern := range []string{"docs/*.md", "BENCH_*.json"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, matches...)
	}
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, name := range citedTestRE.FindAllString(line, -1) {
				if !declared[name] {
					t.Errorf("%s:%d cites %s, which no _test.go file declares", doc, i+1, name)
				}
			}
			for _, path := range citedFileRE.FindAllString(line, -1) {
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s:%d cites %s: %v", doc, i+1, path, err)
				}
			}
		}
	}
}
