// Command reshapelint is the repo's invariant multichecker: it runs the
// five project-specific analyzers (detcore, journalfirst, durerr,
// ctxfirst, testonly) over the packages matching its arguments and exits
// nonzero on any diagnostic. testonly reads the whole program, so the root
// module's ./... and benchmark/./... (reference only) are always loaded:
// run it from the repository root. CI runs it over ./... next to go vet;
// the invariants it enforces are documented in DESIGN.md "Enforced
// invariants".
//
// Usage:
//
//	go run ./cmd/reshapelint ./...
//	go run ./cmd/reshapelint -list            # show analyzers and scopes
//	go run ./cmd/reshapelint ./internal/...   # subset
//
// Escape hatch: //lint:allow <analyzer> <justification> on (or directly
// above) the offending line. The justification is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/ctxfirst"
	"repro/internal/analysis/detcore"
	"repro/internal/analysis/durerr"
	"repro/internal/analysis/journalfirst"
	"repro/internal/analysis/testonly"
)

var analyzers = []*analysis.Analyzer{
	detcore.Analyzer,
	journalfirst.Analyzer,
	durerr.Analyzer,
	ctxfirst.Analyzer,
	testonly.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list analyzers and their package scopes, then exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: reshapelint [-list] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the repo's invariant analyzers over the named packages (default ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, firstLine(a.Doc))
			for _, s := range a.Scope {
				fmt.Printf("%-14s   scope: %s\n", "", s)
			}
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs := load(".", patterns...)
	all := pkgs
	if len(patterns) != 1 || patterns[0] != "./..." {
		all = load(".", "./...")
	}
	all = append(all, load("benchmark", "./...")...)

	type finding struct {
		pos      string
		msg      string
		analyzer string
	}
	var findings []finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if !a.AppliesTo(pkg.Path) {
				continue
			}
			diags, err := analysis.RunAnalyzer(a, pkg, all)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			for _, d := range diags {
				findings = append(findings, finding{
					pos:      pkg.Fset.Position(d.Pos).String(),
					msg:      d.Message,
					analyzer: a.Name,
				})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	for _, f := range findings {
		fmt.Printf("%s: %s [%s]\n", f.pos, f.msg, f.analyzer)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "reshapelint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func load(dir string, patterns ...string) []*analysis.Package {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return pkgs
}

func firstLine(s string) string {
	for i, r := range s {
		if r == '\n' {
			return s[:i]
		}
	}
	return s
}
