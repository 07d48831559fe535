package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The escape hatch: a comment of the form
//
//	//lint:allow <analyzer> <justification>
//
// suppresses <analyzer>'s diagnostics on the directive's own line and on
// the line immediately below it (so it works both trailing a statement
// and on its own line above one). The justification is mandatory; a bare
// `//lint:allow detcore` is reported by detcore as a policy violation.
// Every sanctioned exception is therefore documented at the line it
// exempts, and greppable: `git grep lint:allow` is the complete allowance
// inventory.

const allowPrefix = "lint:allow"

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	line          int
	analyzer      string
	justification string
	pos           token.Pos
}

// parseAllows extracts every allow directive from a file's comments.
func parseAllows(fset *token.FileSet, f *ast.File) []allowDirective {
	var out []allowDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue // /* */ comments cannot carry directives
			}
			text, ok = strings.CutPrefix(strings.TrimSpace(text), allowPrefix)
			if !ok || (text != "" && text[0] != ' ' && text[0] != '\t') {
				continue
			}
			// A nested "//" ends the justification (it starts a trailing
			// comment, e.g. an analysistest want expectation).
			if i := strings.Index(text, "//"); i >= 0 {
				text = text[:i]
			}
			fields := strings.Fields(text)
			d := allowDirective{line: fset.Position(c.Pos()).Line, pos: c.Pos()}
			if len(fields) > 0 {
				d.analyzer = fields[0]
				d.justification = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), fields[0]))
			}
			out = append(out, d)
		}
	}
	return out
}

// AllowedLines returns, per file name, the lines a justified allow
// directive for the named analyzer covers: its own and the one below.
func AllowedLines(name string, fset *token.FileSet, files []*ast.File) map[string]map[int]bool {
	allowed := make(map[string]map[int]bool)
	for _, f := range files {
		for _, d := range parseAllows(fset, f) {
			if d.analyzer != name || d.justification == "" {
				continue
			}
			file := fset.Position(d.pos).Filename
			if allowed[file] == nil {
				allowed[file] = make(map[int]bool)
			}
			allowed[file][d.line] = true
			allowed[file][d.line+1] = true
		}
	}
	return allowed
}

// filterAllowed drops diagnostics covered by a justified allow directive
// for the named analyzer, and adds a diagnostic for each directive naming
// it that carries no justification.
func filterAllowed(name string, fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, f := range files {
		for _, d := range parseAllows(fset, f) {
			if d.analyzer == name && d.justification == "" {
				out = append(out, Diagnostic{Pos: d.pos,
					Message: "lint:allow " + name + " needs a justification: say why the invariant may be broken here"})
			}
		}
	}
	allowed := AllowedLines(name, fset, files)
	for _, dg := range diags {
		p := fset.Position(dg.Pos)
		if allowed[p.Filename][p.Line] {
			continue
		}
		out = append(out, dg)
	}
	return out
}
