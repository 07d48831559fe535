// Package journalfirst guards the scheduler's write-ahead discipline:
// every mutation of the Core's journaled state must flow through the
// validated→journal→apply→ack state machine that lives in core.go,
// contact.go, journal.go and persist.go. A direct field write from any
// other file — a future server feature poking j.State, an arbiter
// "fixing up" pendingFree — would mutate acknowledged state without a WAL
// record, and the next crash-recovery replay would silently diverge.
//
// The check is structural: assignments (including map-index writes,
// compound assignments and ++/--) whose target resolves to a journaled
// field of the Core or Job types are only legal in the allowed files.
// Reads are unrestricted, and mutations via the queue's own methods are
// its business — the guarded surface is exactly the state PersistState
// snapshots and Apply replays, plus the idle count restore derives from it.
package journalfirst

import (
	"go/ast"
	"go/types"
	"path/filepath"

	"repro/internal/analysis"
)

// Scope: the journaled state machine lives in the scheduler package.
var Scope = []string{"repro/internal/scheduler"}

// GuardedFields maps a type name to the fields whose writes must stay
// inside AllowedFiles. The sets mirror PersistState: what the snapshot
// persists is exactly what replay must be able to reconstruct.
var GuardedFields = map[string]map[string]bool{
	// free is derived from the running jobs' allocations; restore recomputes
	// it, so a write elsewhere would leave the idle count disagreeing with
	// the state replay reconstructs.
	"Core": set("free", "nextID", "jobs", "queue", "running", "busySeconds", "lastBusy", "lastBusyTime", "Events"),
	// tenant, itersDone and shrinkable are derived from the journaled fields
	// (contact.go's runningSet keeps them); a write elsewhere would leave
	// arbiter snapshots disagreeing with the state replay reconstructs.
	"Job": set("State", "Topo", "pendingFree", "resizeFrom", "Profile", "SubmitTime", "StartTime", "EndTime",
		"tenant", "itersDone", "shrinkable"),
	// The tenant tag is journaled with the submit record and drives
	// fair-share arbitration on replay: rewriting it after acknowledgment
	// would silently shift the job between tenants' shares.
	"JobSpec": set("Tenant"),
}

// AllowedFiles are the state machine's files: the five journaled entry
// points and replay (core.go, journal.go), the shared contact-path
// helpers (contact.go) and snapshot restore (persist.go).
var AllowedFiles = set("core.go", "contact.go", "journal.go", "persist.go")

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// Analyzer is the journal-before-apply guard.
var Analyzer = &analysis.Analyzer{
	Name:  "journalfirst",
	Doc:   "journaled Core/Job state may only be written by the validated→journal→apply→ack state machine files",
	Scope: Scope,
	Run:   run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		file := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if AllowedFiles[file] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					checkWrite(pass, file, lhs)
				}
			case *ast.IncDecStmt:
				checkWrite(pass, file, st.X)
			}
			return true
		})
	}
	return nil
}

// checkWrite reports lhs if it denotes (or indexes into) a guarded field.
func checkWrite(pass *analysis.Pass, file string, lhs ast.Expr) {
	lhs = ast.Unparen(lhs)
	// A write through an index expression (c.jobs[id] = j) mutates the
	// guarded map just as directly as replacing it.
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		lhs = ast.Unparen(ix.X)
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field := selection.Obj()
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() != pass.Pkg {
		return
	}
	tname := named.Obj().Name()
	if GuardedFields[tname][field.Name()] {
		pass.Reportf(sel.Pos(),
			"write to journaled state %s.%s outside the journal state machine (%s); route the mutation through a journaled Core entry point so crash replay sees it",
			tname, field.Name(), file)
	}
}
