// Package blacs provides 2-D process-grid contexts on top of the
// message-passing runtime, in the spirit of the BLACS library that the
// ReSHAPE resizing library is built on. A Context binds a communicator to a
// grid topology and exposes row and column sub-communicators for the
// broadcast patterns used by dense linear algebra (panel broadcasts in LU,
// SUMMA multiplies).
//
// ReSHAPE's resizing protocol maps directly onto this package: expansion
// merges the spawned ranks into a larger communicator and creates a fresh
// Context over the grown grid; shrinking redistributes data to a prefix of
// the ranks, carves a sub-communicator for the survivors, and creates a
// Context over the reduced grid while the remaining ranks exit.
package blacs

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/mpi"
)

// Context is a BLACS-style grid context. Ranks 0..Grid.Count()-1 of the
// communicator form the grid in row-major order; higher ranks are outside
// the grid (InGrid false, Row/Col nil) but still participate in context
// creation, mirroring BLACS processes outside a grid.
type Context struct {
	Comm   *mpi.Comm
	Grid   grid.Topology
	MyRow  int
	MyCol  int
	InGrid bool
	Row    *mpi.Comm // spans my grid row; rank within it is MyCol
	Col    *mpi.Comm // spans my grid column; rank within it is MyRow
}

// New creates a grid context over the first topo.Count() ranks of c.
// Collective: every rank of c must call it with the same topology.
func New(c *mpi.Comm, topo grid.Topology) (*Context, error) {
	if !topo.IsValid() {
		return nil, fmt.Errorf("blacs: invalid topology %v", topo)
	}
	if topo.Count() > c.Size() {
		return nil, fmt.Errorf("blacs: topology %v needs %d ranks, communicator has %d",
			topo, topo.Count(), c.Size())
	}
	ctx := &Context{Comm: c, Grid: topo, MyRow: -1, MyCol: -1}
	ctx.Row, ctx.Col = c.SplitGrid(topo.Rows, topo.Cols)
	if me := c.Rank(); me < topo.Count() {
		ctx.InGrid = true
		ctx.MyRow = me / topo.Cols
		ctx.MyCol = me % topo.Cols
	}
	return ctx, nil
}
