// Package analysistest runs an analyzer over a testdata package and checks
// its diagnostics against golden expectations embedded in the source, the
// same contract as golang.org/x/tools/go/analysis/analysistest: a comment
//
//	// want "regexp" ["regexp" ...]
//
// on a line declares that the analyzer must report at least one diagnostic
// on that line matching each regexp; any diagnostic without a matching
// expectation — and any expectation without a matching diagnostic — fails
// the test.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// expectation is one want pattern anchored to a file line.
type expectation struct {
	file    string // base name
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var (
	wantRe   = regexp.MustCompile(`//\s*want\s+(.*)$`)
	quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

// Run loads the single package rooted at dir, applies the analyzer to it
// with no scope table (the golden package is not a module package), and
// compares its diagnostics against the package's want comments.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	loader := analysis.NewLoader()
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{a}, nil)
	wants := collectWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("no want expectations in %s: a golden test must demonstrate at least one caught violation", dir)
	}
	for _, d := range diags {
		found := false
		for i := range wants {
			w := &wants[i]
			if w.matched || w.file != filepath.Base(d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %s diagnostic matching %q", w.file, w.line, a.Name, w.raw)
		}
	}
}

// collectWants scans every .go file of dir for want comments.
func collectWants(t *testing.T, dir string) []expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	var out []expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading %s: %v", e.Name(), err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			quoted := quotedRe.FindAllString(m[1], -1)
			if len(quoted) == 0 {
				t.Fatalf(`%s:%d: malformed want comment (need // want "regexp")`, e.Name(), i+1)
			}
			for _, q := range quoted {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: unquoting %s: %v", e.Name(), i+1, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: compiling %q: %v", e.Name(), i+1, pat, err)
				}
				out = append(out, expectation{file: e.Name(), line: i + 1, re: re, raw: pat})
			}
		}
	}
	return out
}
