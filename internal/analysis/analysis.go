package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant check. It mirrors the x/tools
// go/analysis Analyzer: a name (used in diagnostics and in //lint:allow
// directives), documentation, and a Run function invoked once per
// type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in output and in allow directives. It
	// must be a valid identifier.
	Name string

	// Doc is the analyzer's documentation: first line a one-sentence
	// summary, the rest the full invariant and its escape-hatch policy.
	Doc string

	// Scope lists the import-path prefixes the multichecker applies this
	// analyzer to (a package matches if its path equals an entry or is a
	// subpath of one). Empty means every package. The analysistest runner
	// ignores Scope: fixtures exercise the checks directly.
	Scope []string

	// Run inspects one package and reports diagnostics through the pass.
	Run func(*Pass) error
}

// AppliesTo reports whether the analyzer's scope covers the package path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, s := range a.Scope {
		if pkgPath == s || (len(pkgPath) > len(s) && pkgPath[:len(s)] == s && pkgPath[len(s)] == '/') {
			return true
		}
	}
	return false
}

// Pass carries one analyzer run over one package: the syntax trees, the
// type information the checker produced for them, and the report sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	All       []*Package // the whole loaded program, this package included

	diags []Diagnostic
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// RunAnalyzer executes one analyzer over one package of the loaded
// program all and returns its diagnostics with //lint:allow suppression
// already applied, sorted by position. Unjustified allow directives naming
// this analyzer are reported as diagnostics themselves: an exception
// without a reason is a violation of the escape-hatch policy, not an
// exception.
func RunAnalyzer(a *Analyzer, pkg *Package, all []*Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		All:       all,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	diags := filterAllowed(a.Name, pkg.Fset, pkg.Files, pass.diags)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
