package reshape

import (
	"repro/internal/blacs"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/resize"
)

// Context is a rank's handle on the running application: a thin adapter
// over the underlying resize.Session that carries the SDK's declarative
// state registry. One Context exists per rank; all of its methods are
// local to that rank unless noted collective.
type Context struct {
	s       *resize.Session
	run     *runner           // nil when wrapping a bare session (NewContext)
	states  []Redistributable // rank-local view of registered custom state
	resizes int               // topology changes this rank lived through
}

// NewContext wraps an existing resize.Session in an SDK Context. This is
// the bridge for code that still drives sessions directly (the legacy
// Worker path, differential tests): App methods can run against it, but
// lifecycle hooks, events and Redistributable plumbing are only provided
// by Run.
func NewContext(s *resize.Session) *Context { return &Context{s: s} }

// Session exposes the underlying resizing-library session — the advanced
// per-stage API (ContactScheduler, ExpandProcessors, ...) for code that
// needs the mechanism beneath the SDK.
func (rc *Context) Session() *resize.Session { return rc.s }

// Comm returns the rank's current communicator.
func (rc *Context) Comm() *mpi.Comm { return rc.s.Comm() }

// Grid returns the current 2-D process-grid context.
func (rc *Context) Grid() *blacs.Context { return rc.s.Ctx() }

// Topo returns the current processor topology.
func (rc *Context) Topo() grid.Topology { return rc.s.Topo() }

// Rank returns the caller's rank in the current communicator.
func (rc *Context) Rank() int { return rc.s.Comm().Rank() }

// Iter returns the number of completed outer iterations.
func (rc *Context) Iter() int { return rc.s.Iter() }

// JobID returns the scheduler's job id.
func (rc *Context) JobID() int { return rc.s.JobID() }

// LastRedist returns the redistribution cost of the most recent resize in
// seconds (0 if the last resize point made no change).
func (rc *Context) LastRedist() float64 { return rc.s.LastRedist() }

// RegisterArray declares a global M×N block-cyclic array with MB×NB blocks
// and adds it to the set redistributed at every resize. It returns the
// array handle whose Data field holds the rank's local piece (fill it with
// FillArray or by hand). Collective: all ranks must register the same
// arrays in the same order, normally from Init.
func (rc *Context) RegisterArray(name string, m, n, mb, nb int) *resize.Array {
	a := &resize.Array{Name: name, M: m, N: n, MB: mb, NB: nb}
	rc.s.RegisterArray(a)
	return a
}

// Array returns a registered array by name.
func (rc *Context) Array(name string) (*resize.Array, bool) { return rc.s.Array(name) }

// FillArray populates the rank's local piece of a registered array from a
// global-index function. Ranks outside the current grid hold no data and
// are left untouched.
func (rc *Context) FillArray(a *resize.Array, f func(i, j int) float64) {
	l := a.LayoutFor(rc.s.Topo())
	rank := rc.s.Comm().Rank()
	if rank >= l.Grid.Count() {
		return
	}
	pr, pc := l.Coords(rank)
	rows, cols := l.LocalRows(pr), l.LocalCols(pc)
	// The global row depends only on li and the global column only on lj:
	// one column table per call instead of an index map per element.
	gjs := make([]int, cols)
	for lj := range gjs {
		_, gjs[lj] = l.LocalToGlobal(pr, pc, 0, lj)
	}
	a.Data = make([]float64, rows*cols)
	for li := 0; li < rows; li++ {
		gi, _ := l.LocalToGlobal(pr, pc, li, 0)
		row := a.Data[li*cols : (li+1)*cols]
		for lj, gj := range gjs {
			row[lj] = f(gi, gj)
		}
	}
}

// RegisterReplicated declares rank-replicated state (e.g. a solution
// vector) that every rank holds and that newly spawned ranks must receive.
// Rank 0's copy is authoritative at resize time and is re-broadcast to
// every rank during an expansion. Re-fetch with Replicated after a resize
// point rather than caching the slice across it.
func (rc *Context) RegisterReplicated(name string, data []float64) {
	rc.s.SetReplicated(name, data)
}

// SetReplicated updates (or creates) a replicated buffer; it is
// RegisterReplicated under the name the resizing library uses for updates.
func (rc *Context) SetReplicated(name string, data []float64) {
	rc.s.SetReplicated(name, data)
}

// Replicated returns a replicated buffer by name (nil if absent).
func (rc *Context) Replicated(name string) []float64 { return rc.s.Replicated(name) }

// RegisterState registers custom resizable state: its Register hook runs
// immediately (declare backing arrays/replicated buffers there), Pack runs
// before every resize point, and Unpack runs after each topology change
// and on newly spawned ranks. Collective: all ranks must register the same
// states in the same order, normally from Init.
func (rc *Context) RegisterState(st Redistributable) error {
	rc.states = append(rc.states, st)
	if rc.run != nil {
		rc.run.noteState(st, len(rc.states)-1)
	}
	return st.Register(rc)
}

// Log records an iteration time in the session's iteration log (averaged
// across the grid, recorded on rank 0) and returns the average. Run calls
// this automatically after every Iterate; it is exposed for legacy-path
// code driving sessions by hand.
func (rc *Context) Log(seconds float64) float64 { return rc.s.Log(seconds) }
