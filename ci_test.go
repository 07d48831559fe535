package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRootBenchmarksRunInCI fails on a Benchmark function in this
// package's test files that matches none of the -bench patterns CI's
// workflow runs on package ".": a benchmark nothing runs or records
// checks nothing.
func TestRootBenchmarksRunInCI(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	benchFlag := regexp.MustCompile(`-bench '([^']+)'`)
	var patterns []*regexp.Regexp
	for _, line := range strings.Split(string(ci), "\n") {
		m := benchFlag.FindStringSubmatch(line)
		if m == nil || !strings.Contains(line, "go test") || !slices.Contains(strings.Fields(line), ".") {
			continue
		}
		patterns = append(patterns, regexp.MustCompile(m[1]))
	}
	if len(patterns) == 0 {
		t.Fatal("ci.yml runs no -bench pattern on package .")
	}

	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	benchmarks := 0
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Benchmark") {
				continue
			}
			benchmarks++
			if !slices.ContainsFunc(patterns, func(re *regexp.Regexp) bool { return re.MatchString(fn.Name.Name) }) {
				t.Errorf("%s: %s matches no -bench pattern ci.yml runs on package .", fset.Position(fn.Pos()), fn.Name.Name)
			}
		}
	}
	if benchmarks == 0 {
		t.Fatal("found no root benchmarks")
	}
}
