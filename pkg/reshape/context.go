package reshape

import (
	"repro/internal/blacs"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/resize"
)

// Context is a rank's handle on the running application and on the
// resizing library beneath it. One Context exists per rank; all of its
// methods are local to that rank unless noted collective.
type Context struct {
	r    *runner
	comm *mpi.Comm
	grid *blacs.Context
	topo grid.Topology

	arrays     []*resize.Array
	replicated map[string][]float64

	iter       int     // completed outer iterations
	resizes    int     // topology changes this rank lived through
	lastRedist float64 // seconds the last resize point spent resizing (0: no change)
	log        []Record
	redistObs  []perfmodel.RedistObservation // rank 0 only
}

// newContext makes a rank's context over comm with the given topology.
// Collective over comm.
func (r *runner) newContext(comm *mpi.Comm, topo grid.Topology) (*Context, error) {
	g, err := blacs.New(comm, topo)
	if err != nil {
		return nil, err
	}
	return &Context{r: r, comm: comm, grid: g, topo: topo, replicated: make(map[string][]float64)}, nil
}

// Session returns the context itself. It remains for callers written when
// the resizing library was a separate layer beneath the Context.
func (rc *Context) Session() *Context { return rc }

// Comm returns the rank's current communicator.
func (rc *Context) Comm() *mpi.Comm { return rc.comm }

// Grid returns the current 2-D process-grid context.
func (rc *Context) Grid() *blacs.Context { return rc.grid }

// Topo returns the current processor topology.
func (rc *Context) Topo() grid.Topology { return rc.topo }

// Rank returns the caller's rank in the current communicator.
func (rc *Context) Rank() int { return rc.comm.Rank() }

// Iter returns the number of completed outer iterations.
func (rc *Context) Iter() int { return rc.iter }

// RegisterArray declares a global M×N block-cyclic array with MB×NB blocks
// and adds it to the set redistributed at every resize. It returns the
// array handle whose Data field holds the rank's local piece (fill it with
// FillArray or by hand). Collective: all ranks must register the same
// arrays in the same order, normally from Init.
func (rc *Context) RegisterArray(name string, m, n, mb, nb int) *resize.Array {
	a := &resize.Array{Name: name, M: m, N: n, MB: mb, NB: nb}
	rc.arrays = append(rc.arrays, a)
	return a
}

// Arrays returns the registered arrays in registration order. The handles
// stay valid across resizes; their Data slices do not (see resize.Array).
func (rc *Context) Arrays() []*resize.Array { return rc.arrays }

// Array returns a registered array by name.
func (rc *Context) Array(name string) (*resize.Array, bool) {
	for _, a := range rc.arrays {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// FillArray populates the rank's local piece of a registered array from a
// global-index function, in storage taken from the mpi float arena. Ranks
// outside the current grid hold no data and are left untouched.
func (rc *Context) FillArray(a *resize.Array, f func(i, j int) float64) {
	l := a.LayoutFor(rc.topo)
	rank := rc.comm.Rank()
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
// Rank 0's copy is authoritative at resize time: an expansion re-broadcasts
// it to every rank — newly spawned and pre-existing alike — and a shrink to
// the survivors, so replicated state cannot diverge across a topology
// change. Re-fetch with Replicated after a resize point rather than caching
// the slice across it.
func (rc *Context) SetReplicated(name string, data []float64) {
	rc.replicated[name] = data
}

// Replicated returns a replicated buffer by name (nil if absent).
func (rc *Context) Replicated(name string) []float64 { return rc.replicated[name] }

// logIteration implements the paper's log(iteration time): it averages the
// per-rank iteration time across the grid and records it on rank 0.
// Collective.
func (rc *Context) logIteration(iterTime float64) float64 {
	avg := rc.comm.AllreduceSum(iterTime) / float64(rc.comm.Size())
	if rc.comm.Rank() == 0 {
		rc.log = append(rc.log, Record{Iter: rc.iter, Topo: rc.topo, AvgTime: avg, RedistSec: rc.lastRedist})
	}
	return avg
}
