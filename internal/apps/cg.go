package apps

import (
	"fmt"

	"repro/internal/blacs"
	"repro/internal/blockcyclic"
	"repro/internal/mpi"
)

// DistMatVec computes y = A x for a 2-D block-cyclically distributed matrix
// and a replicated input vector, returning the replicated result: each rank
// accumulates partial products for its local elements and the grid reduces
// them. Collective over the grid.
//
// A local row is walked one block at a time: local block column lb holds
// the NB contiguous global columns of block lb*Cols+pc, so each block
// multiplies a contiguous segment of x. Each row's sum still takes its
// products in local column order.
func DistMatVec(ctx *blacs.Context, l blockcyclic.Layout, a, x []float64) ([]float64, error) {
	if len(x) != l.N {
		return nil, fmt.Errorf("apps: DistMatVec x has %d entries, want %d", len(x), l.N)
	}
	if !ctx.InGrid {
		return nil, nil
	}
	partial := make([]float64, l.M)
	pr, pc := l.Coords(ctx.Comm.Rank())
	rows, cols := l.LocalRows(pr), l.LocalCols(pc)
	for li := 0; li < rows; li++ {
		gi, _ := l.LocalToGlobal(pr, pc, li, 0)
		row := a[li*cols : (li+1)*cols]
		s := 0.0
		for lj := 0; lj < cols; lj += l.NB {
			blk := row[lj:min(lj+l.NB, cols)]
			gj := (lj/l.NB*l.Grid.Cols + pc) * l.NB
			xs := x[gj:][:len(blk)]
			for j, v := range blk {
				s += v * xs[j]
			}
		}
		partial[gi] += s
	}
	return ctx.Comm.Allreduce(partial, mpi.SumOp), nil
}

// DistCG runs `iters` conjugate-gradient iterations on an SPD matrix in a
// 2-D block-cyclic layout with replicated vectors b (right-hand side) and x
// (initial guess, updated in place). It returns the final squared residual
// norm. Vector reductions are redundant-replicated, so every rank holds
// identical iterates — exactly the state the resize library re-replicates
// to spawned ranks. Collective over the grid.
func DistCG(ctx *blacs.Context, l blockcyclic.Layout, a, b, x []float64, iters int) (float64, error) {
	if l.M != l.N {
		return 0, fmt.Errorf("apps: DistCG needs a square matrix, got %dx%d", l.M, l.N)
	}
	if len(b) != l.N || len(x) != l.N {
		return 0, fmt.Errorf("apps: DistCG vector lengths %d/%d, want %d", len(b), len(x), l.N)
	}
	if !ctx.InGrid {
		return 0, nil
	}
	n := l.N

	ax, err := DistMatVec(ctx, l, a, x)
	if err != nil {
		return 0, err
	}
	r := make([]float64, n)
	p := make([]float64, n)
	for i := 0; i < n; i++ {
		r[i] = b[i] - ax[i]
		p[i] = r[i]
	}
	rr := dot(r, r)

	for it := 0; it < iters && rr > 0; it++ {
		ap, err := DistMatVec(ctx, l, a, p)
		if err != nil {
			return 0, err
		}
		pap := dot(p, ap)
		if pap == 0 {
			break
		}
		alpha := rr / pap
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := dot(r, r)
		beta := rrNew / rr
		rr = rrNew
		for i := 0; i < n; i++ {
			p[i] = r[i] + beta*p[i]
		}
	}
	return rr, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
