package reshape

import (
	"repro/internal/blacs"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/resize"
)

// Context is a rank's handle on the running application: a thin adapter
// over the underlying resize.Session. One Context exists per rank; all of
// its methods are local to that rank unless noted collective.
type Context struct {
	s       *resize.Session
	resizes int // topology changes this rank lived through
}

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
// global-index function, in storage taken from the mpi float arena. Ranks
// outside the current grid hold no data and are left untouched.
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
	a.Data = mpi.GetFloats(rows * cols) // every element is written below
	for li := 0; li < rows; li++ {
		gi, _ := l.LocalToGlobal(pr, pc, li, 0)
		row := a.Data[li*cols : (li+1)*cols]
		for lj, gj := range gjs {
			row[lj] = f(gi, gj)
		}
	}
}

// SetReplicated creates or updates rank-replicated state (e.g. a solution
// vector) that every rank holds and that newly spawned ranks must receive.
// Rank 0's copy is authoritative at resize time and is re-broadcast to
// every rank during an expansion. Re-fetch with Replicated after a resize
// point rather than caching the slice across it.
func (rc *Context) SetReplicated(name string, data []float64) {
	rc.s.SetReplicated(name, data)
}

// Replicated returns a replicated buffer by name (nil if absent).
func (rc *Context) Replicated(name string) []float64 { return rc.s.Replicated(name) }
