// Package detcore enforces the determinism contract of the scheduler's
// replayable core: the packages whose behavior must be a pure function of
// their journaled inputs (PR 1's event core, the WAL replay path, the
// virtual-time simulator and the redistribution planner) may not read
// wall clocks, draw from global randomness, leak map iteration order into
// ordered outputs, or spawn goroutines on the replay path.
//
// One stray time.Now() in a policy, or one map-range feeding an event
// append, silently breaks bit-identical WAL replay (TestReplayW1BitIdentical)
// — the property the whole durable control plane rests on. The Server's
// wall-clock epoch is the single sanctioned nondeterminism boundary and
// is marked with justified //lint:allow detcore directives.
package detcore

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Scope is the set of determinism-critical packages the multichecker
// applies detcore to. server.go and watch.go sit inside the scheduler
// package and are therefore covered: their real-time duties are the
// documented allowances, not silent exemptions.
var Scope = []string{
	"repro/internal/scheduler",
	// Subsumed by the prefix above, listed to record that the global
	// rebalancer's plan computation is deliberately in scope: a planner
	// that read the wall clock or ranged a map would break replay.
	"repro/internal/scheduler/rebalance",
	// Likewise subsumed: fair-share arbitration (tenant shares, deficit
	// picks) replays from the journal, so PickStart/Decide must be pure
	// functions of the snapshot — sorted tenant order, no clocks, no maps
	// ranged into decisions.
	"repro/internal/scheduler/fairshare",
	// Likewise subsumed: a recovering daemon must install the arbiter the
	// previous process ran before replay, so the mode constructor must be a
	// pure function of its name and inputs.
	"repro/internal/scheduler/modes",
	"repro/internal/durability",
	"repro/internal/simcluster",
	"repro/internal/redistrib",
}

// forbiddenClock lists wall-clock reads. Timers/tickers are not listed:
// they schedule real-time work (e.g. the WAL background sync loop) but do
// not put a timestamp into replayable state.
var forbiddenClock = map[string]bool{
	"time.Now":   true,
	"time.Since": true,
	"time.Until": true,
}

// allowedRand lists the math/rand constructors that produce explicitly
// seeded, locally owned generators; every other package-level call in
// math/rand and math/rand/v2 draws from the global (unseeded or
// process-random) source.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// ReplayRoots names the functions that anchor the no-goroutine check:
// every function statically reachable from one of these within its own
// package must not contain a go statement. "Type.Method" matches a
// method, a bare name matches a package-level function.
var ReplayRoots = []string{
	"Core.Apply",       // scheduler: the replay entry point
	"Recovery.Restore", // durability: drives Core.Apply over the journal tail
	"Store.Append",     // durability: runs inside the journal hook, under the scheduler lock
	"Store.Commit",     // durability: the scheduler Server's committer is its one caller; it writes and fsyncs on that goroutine and starts none of its own
}

// Analyzer is the detcore invariant suite.
var Analyzer = &analysis.Analyzer{
	Name:  "detcore",
	Doc:   "forbid wall clocks, global randomness, map-order leaks and replay-path goroutines in determinism-critical packages",
	Scope: Scope,
	Run:   run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		checkCalls(pass, f)
		checkMapRanges(pass, f)
	}
	checkReplayGoroutines(pass)
	return nil
}

// calleeName resolves a call's callee to (package path, name) for
// package-level functions, ("", "") otherwise.
func calleeName(pass *analysis.Pass, call *ast.CallExpr) (pkgPath, name string) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", ""
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if ok && fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil {
		return fn.Pkg().Path(), fn.Name()
	}
	return "", ""
}

// checkCalls flags wall-clock reads and global-randomness draws.
func checkCalls(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name := calleeName(pass, call)
		if pkg == "" {
			return true
		}
		full := pkg + "." + name
		if forbiddenClock[full] {
			pass.Reportf(call.Pos(), "%s reads the wall clock in a determinism-critical package; take the timestamp as an argument or move the read to the Server boundary", full)
		}
		if (pkg == "math/rand" || pkg == "math/rand/v2") && !allowedRand[name] {
			pass.Reportf(call.Pos(), "%s draws from the global random source; use an explicitly seeded rand.New(rand.NewSource(seed)) owned by the caller", full)
		}
		return true
	})
}

// checkMapRanges flags range-over-map loops whose iteration order can
// leak into an ordered output: an append to a slice declared outside the
// loop (unless the slice is sorted afterwards in the same block chain),
// or a send to a channel that does not depend on the iteration variables
// (a per-key channel is a per-key stream; a shared channel observes map
// order).
func checkMapRanges(pass *analysis.Pass, f *ast.File) {
	// Walk function bodies so the post-loop statements are in reach for
	// the sorted-afterwards check.
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body != nil {
			checkMapRangesIn(pass, body)
		}
		return true
	})
}

// checkMapRangesIn scans one function body (non-recursively into nested
// function literals, which Inspect hands back to checkMapRanges).
func checkMapRangesIn(pass *analysis.Pass, body *ast.BlockStmt) {
	var walkBlock func(stmts []ast.Stmt)
	walkBlock = func(stmts []ast.Stmt) {
		for i, st := range stmts {
			ast.Inspect(st, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // checked separately with its own block chain
				}
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if t := pass.TypesInfo.TypeOf(rng.X); t == nil || !isMap(t) {
					return true
				}
				checkOneMapRange(pass, rng, stmts[i+1:])
				return true
			})
		}
	}
	walkBlock(body.List)
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkOneMapRange inspects one map-range loop; rest is the statement
// tail following the loop's outermost enclosing statement, searched for
// an intervening sort of any appended-to slice.
func checkOneMapRange(pass *analysis.Pass, rng *ast.RangeStmt, rest []ast.Stmt) {
	iterVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			iterVars[pass.TypesInfo.Defs[id]] = true
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(st.Lhs) {
					continue
				}
				dest, ok := ast.Unparen(st.Lhs[i]).(*ast.Ident)
				if !ok {
					// Appending through a selector (x.field): outer by definition.
					if sel, ok := ast.Unparen(st.Lhs[i]).(*ast.SelectorExpr); ok {
						pass.Reportf(st.Pos(), "append to %s inside range over a map leaks map iteration order into an ordered output; collect and sort, or iterate a sorted key slice", exprString(sel))
					}
					continue
				}
				obj := pass.TypesInfo.Uses[dest]
				if obj == nil || definedWithin(obj, rng) {
					continue
				}
				if sortedAfter(pass, obj, rest) {
					continue // the collect-then-sort idiom: order is re-established
				}
				pass.Reportf(st.Pos(), "append to %s inside range over a map leaks map iteration order into an ordered output; sort %s afterwards or iterate a sorted key slice", dest.Name, dest.Name)
			}
		case *ast.SendStmt:
			if usesAny(pass, st.Chan, iterVars) {
				return true // per-key channel: each receiver sees a deterministic stream
			}
			pass.Reportf(st.Pos(), "send on a shared channel inside range over a map publishes values in map iteration order; iterate a sorted key slice")
		}
		return true
	})
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// definedWithin reports whether obj's declaration lies inside the loop.
func definedWithin(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
}

// usesAny reports whether expr references any of the given objects.
func usesAny(pass *analysis.Pass, expr ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[pass.TypesInfo.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// sortedAfter reports whether any statement in the tail passes obj to a
// sort-like call (sort.*, slices.Sort*, or any function whose name
// contains "Sort" or "sort").
func sortedAfter(pass *analysis.Pass, obj types.Object, rest []ast.Stmt) bool {
	for _, st := range rest {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sortLike := false
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				sortLike = strings.Contains(strings.ToLower(fun.Name), "sort")
			case *ast.SelectorExpr:
				sortLike = strings.Contains(strings.ToLower(fun.Sel.Name), "sort")
				if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
					if pn, ok := pass.TypesInfo.Uses[x].(*types.PkgName); ok {
						p := pn.Imported().Path()
						sortLike = sortLike || p == "sort" || p == "slices"
					}
				}
			}
			if !sortLike {
				return true
			}
			for _, arg := range call.Args {
				if usesAny(pass, arg, map[types.Object]bool{obj: true}) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// checkReplayGoroutines builds the package's static call graph and flags
// go statements in functions reachable from a ReplayRoots entry. Calls
// through interfaces or function values are not resolvable statically and
// are therefore not followed — the check is an under-approximation, and
// the dynamic cross-check is the -race CI matrix over the same packages.
func checkReplayGoroutines(pass *analysis.Pass) {
	decls := map[string]*ast.FuncDecl{} // "Type.Method" or "Func" -> decl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls[funcKey(fd)] = fd
			}
		}
	}
	var roots []string
	for _, r := range ReplayRoots {
		if _, ok := decls[r]; ok {
			roots = append(roots, r)
		}
	}
	if len(roots) == 0 {
		return
	}

	reach := map[string]bool{}
	var visit func(key, root string)
	visit = func(key, root string) {
		if reach[key] {
			return
		}
		reach[key] = true
		fd := decls[key]
		if fd == nil || fd.Body == nil {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(st.Pos(), "goroutine spawned on the journal replay path (reachable from %s); replay must be single-threaded and deterministic", root)
			case *ast.CallExpr:
				if key2 := staticCalleeKey(pass, st); key2 != "" {
					if _, ok := decls[key2]; ok {
						visit(key2, root)
					}
				}
			}
			return true
		})
	}
	for _, r := range roots {
		visit(r, r)
	}
}

// funcKey names a declaration "Recv.Name" or "Name".
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if se, ok := t.(*ast.StarExpr); ok {
		t = se.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	// Generic receivers (IndexExpr) do not occur in the scoped packages.
	return fd.Name.Name
}

// staticCalleeKey resolves a call to a same-package function or method
// declaration key, or "" when the callee is dynamic or external.
func staticCalleeKey(pass *analysis.Pass, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok && fn.Pkg() == pass.Pkg {
			return fn.Name()
		}
	case *ast.SelectorExpr:
		fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() != pass.Pkg {
			return ""
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			return fn.Name()
		}
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return ""
}

// exprString renders a selector chain for a message.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	}
	return "expression"
}
