// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against `// want` expectations, mirroring the x/tools
// package of the same name on this repo's dependency-free framework.
//
// A fixture is a directory under <testdata>/src/<name>/ holding one Go
// package. Lines that must trigger a diagnostic carry a trailing comment
//
//	// want "regexp"
//
// (several quoted regexps for several diagnostics on one line). The run
// fails if any expectation goes unmatched or any unexpected diagnostic
// appears — so neutering an analyzer makes its fixture test fail, which
// is exactly the property the CI suite leans on.
package analysistest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// expectation is one want-regexp on one line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// parseWants extracts expectations from a file's comments.
func parseWants(t *testing.T, fset *token.FileSet, f *ast.File) []*expectation {
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			raw, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue
			}
			raw = strings.TrimSpace(raw)
			text, ok := strings.CutPrefix(raw, "want ")
			if !ok {
				// A want may trail another directive on the same line,
				// introduced by a nested "//" (e.g. after lint:allow).
				i := strings.Index(raw, "// want ")
				if i < 0 {
					continue
				}
				text = raw[i+len("// want "):]
			}
			pos := fset.Position(c.Pos())
			ms := wantRE.FindAllStringSubmatch(text, -1)
			if len(ms) == 0 {
				t.Errorf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				continue
			}
			for _, m := range ms {
				pat := strings.ReplaceAll(m[1], `\"`, `"`)
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					continue
				}
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
			}
		}
	}
	return out
}

// Run loads the fixture package at <testdata>/src/<pkg> and checks the
// analyzer's (allow-filtered) diagnostics against its want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkg)
	loaded, err := analysis.LoadDir(dir, pkg)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkg, err)
	}
	diags, err := analysis.RunAnalyzer(a, loaded, []*analysis.Package{loaded})
	if err != nil {
		t.Fatalf("running %s on fixture %s: %v", a.Name, pkg, err)
	}

	var wants []*expectation
	for _, f := range loaded.Files {
		wants = append(wants, parseWants(t, loaded.Fset, f)...)
	}

	for _, d := range diags {
		p := loaded.Fset.Position(d.Pos)
		if !claim(wants, p.Filename, p.Line, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", p.Filename, p.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// claim marks the first unmatched expectation covering the diagnostic.
func claim(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// TestdataDir returns the conventional shared fixture root,
// internal/analysis/testdata, relative to an analyzer package's own test
// (one directory up from the analyzer).
func TestdataDir() string {
	return filepath.Join("..", "testdata")
}
