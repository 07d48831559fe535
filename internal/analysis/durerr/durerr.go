// Package durerr enforces durability error discipline on the WAL and
// snapshot write paths: an error from Sync, Write, Rename (or a
// non-deferred Close) on those paths is the storage layer telling you an
// acknowledged operation may not survive a crash — discarding it turns
// "durable" into "probably". The write-ahead contract (journal refusal
// must propagate so the Core never applies an unjournaled op) only holds
// if every one of those errors reaches the caller. The same goes for
// Commit, the barrier between applying an op and acknowledging it: a
// dropped Commit error acknowledges an op no flush ever covered.
//
// Flagged forms, for callees named Sync/Write/Rename/Truncate/Commit/Close
// whose final result is an error:
//
//   - a bare call statement: f.Close()
//   - an explicit blank discard: _ = w.Sync(), n, _ := f.Write(b)
//   - defer/go for Sync, Write, Rename, Truncate and Commit (their errors
//     are always meaningful); a *deferred* Close is permitted — it is the
//     idiomatic cleanup of read-side handles, whose close errors carry no
//     durability signal.
//
// Best-effort cleanup (os.Remove of a temp file on an already-failing
// path) is deliberately not flagged.
package durerr

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Scope covers the durability layer and the scheduler package (whose
// persist.go is the snapshot state image; the package has no other I/O,
// so the wider net costs nothing and catches future additions).
var Scope = []string{
	"repro/internal/durability",
	"repro/internal/scheduler",
}

// watched names the durability-significant calls. Close is special-cased
// in run: only non-deferred discards are flagged.
var watched = map[string]bool{
	"Sync": true, "Write": true, "Rename": true, "Truncate": true, "Commit": true, "Close": true,
}

// Analyzer is the durability-error-discipline check.
var Analyzer = &analysis.Analyzer{
	Name:  "durerr",
	Doc:   "errors from Sync/Write/Rename/Truncate/Commit/Close on durability paths must be handled, not discarded",
	Scope: Scope,
	Run:   run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if name, ok := watchedCall(pass, st.X); ok {
					pass.Reportf(st.Pos(), "%s error discarded on a durability path; handle it (propagate, join, or log) — a dropped %s error can lose acknowledged state", name, name)
				}
			case *ast.DeferStmt:
				if name, ok := watchedCall(pass, st.Call); ok && name != "Close" {
					pass.Reportf(st.Pos(), "deferred %s discards its error on a durability path; call it explicitly and handle the error", name)
				}
			case *ast.GoStmt:
				if name, ok := watchedCall(pass, st.Call); ok && name != "Close" {
					pass.Reportf(st.Pos(), "%s error discarded in a goroutine on a durability path; handle it in the spawned function", name)
				}
			case *ast.AssignStmt:
				checkBlankDiscard(pass, st)
			}
			return true
		})
	}
	return nil
}

// watchedCall reports whether expr is a call to a watched method or
// function whose last result is an error.
func watchedCall(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	if !watched[id.Name] {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	if !ok || named.Obj().Pkg() != nil || named.Obj().Name() != "error" {
		return "", false
	}
	return id.Name, true
}

// checkBlankDiscard flags `_ = f.Close()` style assignments where the
// error result position is the blank identifier.
func checkBlankDiscard(pass *analysis.Pass, st *ast.AssignStmt) {
	// Single call on the RHS; the error is the last LHS position.
	if len(st.Rhs) != 1 {
		return
	}
	name, ok := watchedCall(pass, st.Rhs[0])
	if !ok || len(st.Lhs) == 0 {
		return
	}
	last, ok := st.Lhs[len(st.Lhs)-1].(*ast.Ident)
	if ok && last.Name == "_" {
		pass.Reportf(st.Pos(), "%s error explicitly discarded on a durability path; if the drop is truly safe, say why with a lint:allow directive instead", name)
	}
}
