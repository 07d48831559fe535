package apps

import (
	"fmt"

	"repro/internal/blacs"
	"repro/internal/blockcyclic"
)

// JacobiSweeps runs `sweeps` dense Jacobi iterations x <- D^{-1}(b - R x)
// on a row-distributed system: A is n x n in a 1-D block-cyclic row layout
// (Cols == 1), bvec is the right-hand side distributed with the same row
// blocking (an n x 1 array), and x is the solution vector replicated on
// every rank. It returns the squared residual norm ||b - A x||^2 of the
// final iterate. Collective over the grid.
func JacobiSweeps(ctx *blacs.Context, l blockcyclic.Layout, a, bvec, x []float64, sweeps int) (float64, error) {
	if l.Grid.Cols != 1 {
		return 0, fmt.Errorf("apps: Jacobi needs a 1-D row layout, got %v", l.Grid)
	}
	if l.N != l.M {
		return 0, fmt.Errorf("apps: Jacobi needs a square matrix, got %dx%d", l.M, l.N)
	}
	if len(x) != l.N {
		return 0, fmt.Errorf("apps: Jacobi x has %d entries, want %d", len(x), l.N)
	}
	if !ctx.InGrid {
		return 0, nil
	}
	me := ctx.Comm.Rank()
	n := l.N
	rows := l.LocalRows(me)

	// Global row index of each local row, fixed for the whole call.
	gidx := make([]int, rows)
	for li := 0; li < rows; li++ {
		gi, _ := l.LocalToGlobal(me, 0, li, 0)
		gidx[li] = gi
	}

	xnewLocal := make([]float64, rows)
	for s := 0; s < sweeps; s++ {
		for li := 0; li < rows; li++ {
			gi := gidx[li]
			row := a[li*n : (li+1)*n]
			sum := 0.0
			for j := 0; j < gi; j++ {
				sum += row[j] * x[j]
			}
			for j := gi + 1; j < n; j++ {
				sum += row[j] * x[j]
			}
			xnewLocal[li] = (bvec[li] - sum) / row[gi]
		}
		assembleReplicated(ctx, l, xnewLocal, x)
	}

	// Residual ||b - A x||^2, reduced across ranks.
	local := 0.0
	for li := 0; li < rows; li++ {
		row := a[li*n : (li+1)*n]
		s := 0.0
		for j := 0; j < n; j++ {
			s += row[j] * x[j]
		}
		d := bvec[li] - s
		local += d * d
	}
	return ctx.Comm.AllreduceSum(local), nil
}

// assembleReplicated gathers each rank's local vector piece (row blocking of
// l) into the replicated global vector on every rank.
func assembleReplicated(ctx *blacs.Context, l blockcyclic.Layout, local, global []float64) {
	pieces := ctx.Comm.AllgatherFloats(local)
	for r, piece := range pieces {
		for li := range piece {
			gi, _ := l.LocalToGlobal(r, 0, li, 0)
			global[gi] = piece[li]
		}
	}
}
