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

	// Both loops walk four rows per pass over x, each row with its own
	// sum taking its products in column order, so the result is the
	// row-at-a-time one bit for bit; a scalar tail takes the leftover rows.
	xnewLocal := make([]float64, rows)
	for s := 0; s < sweeps; s++ {
		li := 0
		for ; li+4 <= rows; li += 4 {
			sweepRows4(a[li*n:(li+4)*n], gidx[li:li+4], x, bvec[li:li+4], xnewLocal[li:li+4])
		}
		for ; li < rows; li++ {
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
	li := 0
	for ; li+4 <= rows; li += 4 {
		r0, r1, r2, r3 := a[li*n:][:n], a[(li+1)*n:][:n], a[(li+2)*n:][:n], a[(li+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		for t, s := range [...]float64{s0, s1, s2, s3} {
			d := bvec[li+t] - s
			local += d * d
		}
	}
	for ; li < rows; li++ {
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

// sweepRows4 computes the Jacobi update of four consecutive local rows a
// (4 x len(x)) with ascending diagonal columns g in one pass over x. Each
// row skips its own diagonal column, so the columns split into runs that
// every row takes and the four diagonal columns, each taken by the other
// three rows.
func sweepRows4(a []float64, g []int, x, b, out []float64) {
	n := len(x)
	r0, r1, r2, r3 := a[:n], a[n:2*n], a[2*n:3*n], a[3*n:4*n]
	var s0, s1, s2, s3 float64
	j := 0
	for t := 0; ; t++ {
		end := n
		if t < 4 {
			end = g[t]
		}
		for ; j < end; j++ {
			xj := x[j]
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		if t == 4 {
			break
		}
		xj := x[j]
		if t != 0 {
			s0 += r0[j] * xj
		}
		if t != 1 {
			s1 += r1[j] * xj
		}
		if t != 2 {
			s2 += r2[j] * xj
		}
		if t != 3 {
			s3 += r3[j] * xj
		}
		j++
	}
	out[0] = (b[0] - s0) / r0[g[0]]
	out[1] = (b[1] - s1) / r1[g[1]]
	out[2] = (b[2] - s2) / r2[g[2]]
	out[3] = (b[3] - s3) / r3[g[3]]
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
