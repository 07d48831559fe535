package apps

import (
	"fmt"

	"repro/internal/blacs"
	"repro/internal/blockcyclic"
	"repro/internal/mpi"
)

// DistSolveLU solves A x = b given the in-place LU factorization produced by
// DistLU (the PDGETRS analogue): forward substitution with the unit lower
// triangle, then back substitution with the upper triangle. b is replicated
// on every rank (length N) and is overwritten with the solution. Collective
// over the grid.
//
// The sweep walks block rows; the owners of each diagonal block solve their
// sub-block locally after folding in contributions from already-solved
// parts, then broadcast the solved segment to everyone.
func DistSolveLU(ctx *blacs.Context, l blockcyclic.Layout, lu, b []float64) error {
	if l.M != l.N || l.MB != l.NB {
		return fmt.Errorf("apps: DistSolveLU needs a square matrix with square blocks")
	}
	if len(b) != l.N {
		return fmt.Errorf("apps: DistSolveLU rhs has %d entries, want %d", len(b), l.N)
	}
	if !ctx.InGrid {
		return nil
	}
	nblk := l.BlockRows()

	// Forward substitution: y_k = b_k - sum_{j<k} L_kj y_j (unit diagonal).
	for k := 0; k < nblk; k++ {
		if err := solveBlockRow(ctx, l, lu, b, k, true); err != nil {
			return err
		}
	}
	// Back substitution: x_k = U_kk^{-1} (y_k - sum_{j>k} U_kj x_j).
	for k := nblk - 1; k >= 0; k-- {
		if err := solveBlockRow(ctx, l, lu, b, k, false); err != nil {
			return err
		}
	}
	return nil
}

// solveBlockRow updates segment k of the replicated vector using the ranks
// that own pieces of block row k, then broadcasts the solved segment from
// the diagonal owner.
func solveBlockRow(ctx *blacs.Context, l blockcyclic.Layout, lu, b []float64, k int, lower bool) error {
	pr := k % l.Grid.Rows
	pc := k % l.Grid.Cols
	h := l.BlockHeight(k)
	seg := make([]float64, h)

	if ctx.MyRow == pr {
		// Partial sums over my blocks in row k (strictly left of the
		// diagonal for the lower sweep, strictly right for the upper).
		partial := make([]float64, h)
		for bj := ctx.MyCol; bj < l.BlockCols(); bj += l.Grid.Cols {
			if lower && bj >= k {
				continue
			}
			if !lower && bj <= k {
				continue
			}
			blk := getBlock(l, lu, ctx.MyCol, k, bj)
			w := l.BlockWidth(bj)
			x0 := bj * l.NB
			for ii := 0; ii < h; ii++ {
				s := 0.0
				for jj := 0; jj < w; jj++ {
					s += blk[ii*w+jj] * b[x0+jj]
				}
				partial[ii] += s
			}
		}
		summed := ctx.Row.Reduce(pc, partial, mpi.SumOp)

		// The diagonal owner completes the local triangular solve.
		if ctx.MyCol == pc {
			diag := getBlock(l, lu, ctx.MyCol, k, k)
			y0 := k * l.MB
			if lower {
				for ii := 0; ii < h; ii++ {
					s := b[y0+ii] - summed[ii]
					for jj := 0; jj < ii; jj++ {
						s -= diag[ii*h+jj] * seg[jj]
					}
					seg[ii] = s // unit diagonal
				}
			} else {
				for ii := h - 1; ii >= 0; ii-- {
					s := b[y0+ii] - summed[ii]
					for jj := ii + 1; jj < h; jj++ {
						s -= diag[ii*h+jj] * seg[jj]
					}
					piv := diag[ii*h+ii]
					if piv == 0 {
						return fmt.Errorf("apps: DistSolveLU zero pivot in block %d", k)
					}
					seg[ii] = s / piv
				}
			}
		}
	}

	// Everyone receives the solved segment from the diagonal owner.
	root := ctx.Rank(pr, pc)
	got := ctx.Comm.BcastFloats(root, seg)
	copy(b[k*l.MB:k*l.MB+h], got)
	return nil
}
