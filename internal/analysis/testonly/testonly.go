// Package testonly reports functions and methods in internal/ and pkg/
// that no non-test code reaches. Each is deleted, moved into the _test.go
// file of its user, or kept under an allow naming the test and why it is
// a test oracle or seam.
//
// The check is whole-program: it reads Pass.All, which reshapelint fills
// with the root module and, as reference only, benchmark/. Roots are every
// function outside the checked packages, init and main, what package-level
// declarations reference, allowed declarations, and methods named like a
// method of any interface type the program sees (they may be called
// through it). Liveness spreads through function bodies to a fixpoint.
package testonly

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// skipped is not checked: its fixture harness exists for tests by design.
const skipped = "repro/internal/analysis"

// Analyzer is the test-only-surface check.
var Analyzer = &analysis.Analyzer{
	Name:  "testonly",
	Doc:   "functions in internal/ (but internal/analysis) and pkg/ must be reached by non-test code in the root module or benchmark/",
	Scope: []string{"repro/internal", "repro/pkg"},
	Run:   run,
}

func run(pass *analysis.Pass) error {
	if strings.HasPrefix(pass.Pkg.Path(), skipped) {
		return nil
	}
	live := liveness(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && !live[key(pass.TypesInfo.Defs[fd.Name])] {
				name := fd.Name.Name
				if fd.Recv != nil {
					name = strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*") + "." + name
				}
				pass.Reportf(fd.Name.Pos(), "%s is reached only from tests: delete it, move it into its user's _test.go, or justify a //lint:allow testonly", name)
			}
		}
	}
	return nil
}

// liveness returns the keys of every function the program's roots reach.
func liveness(pass *analysis.Pass) map[string]bool {
	// error's method, and those errors.Is/As/Unwrap assert on unnamed
	// interfaces no scope shows.
	ifaces := map[string]bool{"Error": true, "Is": true, "As": true, "Unwrap": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if !seen[tp] {
			seen[tp] = true
			for _, n := range tp.Scope().Names() {
				if tn, ok := tp.Scope().Lookup(n).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
			for _, im := range tp.Imports() {
				walk(im)
			}
		}
	}
	for _, p := range pass.All {
		walk(p.Types)
		for _, tv := range p.Info.Types {
			addIface(tv.Type) // interface literals
		}
	}

	live, uses := map[string]bool{"": true}, map[string][]string{}
	var work []string
	mark := func(k string) {
		if !live[k] {
			live[k] = true
			work = append(work, k)
		}
	}
	for _, p := range pass.All {
		checked := p.Path == pass.Pkg.Path() || pass.Analyzer.AppliesTo(p.Path) && !strings.HasPrefix(p.Path, skipped)
		allowed := analysis.AllowedLines(pass.Analyzer.Name, p.Fset, p.Files)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				var refs []string
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && key(p.Info.Uses[id]) != "" {
						refs = append(refs, key(p.Info.Uses[id]))
					}
					return true
				})
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					for _, r := range refs {
						mark(r)
					}
					continue
				}
				k, name, pos := key(p.Info.Defs[fd.Name]), fd.Name.Name, p.Fset.Position(fd.Pos())
				uses[k] = append(uses[k], refs...)
				if !checked || allowed[pos.Filename][pos.Line] || fd.Recv != nil && ifaces[name] ||
					fd.Recv == nil && (name == "init" || name == "main") {
					mark(k)
				}
			}
		}
	}
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range uses[k] {
			mark(r)
		}
	}
	return live
}

// key names a function the same way whether it was type-checked from
// source or read from export data (the root module and benchmark/ are
// loaded apart, so one declaration has several objects); "" for anything
// that is not a function.
func key(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin().FullName()
	}
	return ""
}
