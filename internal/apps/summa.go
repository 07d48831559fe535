package apps

import (
	"fmt"

	"repro/internal/blacs"
	"repro/internal/blockcyclic"
	"repro/internal/matrix"
)

// DistMatMul computes C = A * B for square matrices distributed 2-D
// block-cyclically with square blocks, using the SUMMA algorithm that
// underlies PBLAS's PDGEMM (the paper's MM workload): for every global
// block step k, the owners of block column k of A broadcast their blocks
// along process rows, the owners of block row k of B broadcast theirs down
// process columns, and every rank accumulates local outer products.
// C must use the same layout as A and B; its contents are overwritten.
func DistMatMul(ctx *blacs.Context, l blockcyclic.Layout, a, b, c []float64) error {
	if l.MB != l.NB {
		return fmt.Errorf("apps: DistMatMul needs square blocks, got %dx%d", l.MB, l.NB)
	}
	if l.M != l.N {
		return fmt.Errorf("apps: DistMatMul needs square matrices, got %dx%d", l.M, l.N)
	}
	if !ctx.InGrid {
		return nil
	}
	for i := range c {
		c[i] = 0
	}
	nblk := l.BlockRows()
	myRow, myCol := ctx.MyRow, ctx.MyCol
	stride := l.LocalCols(myCol)

	for k := 0; k < nblk; k++ {
		pr := k % l.Grid.Rows
		pc := k % l.Grid.Cols
		kw := l.BlockWidth(k)

		// Block column k of A spreads along process rows.
		var aPanel panel
		if myCol == pc {
			for bi := myRow; bi < nblk; bi += l.Grid.Rows {
				aPanel.Idx = append(aPanel.Idx, bi)
				aPanel.Blocks = append(aPanel.Blocks, getBlock(l, a, myCol, bi, k))
			}
		}
		aPanel = ctx.Row.Bcast(pc, aPanel).(panel)

		// Block row k of B spreads down process columns.
		var bPanel panel
		if myRow == pr {
			for bj := myCol; bj < nblk; bj += l.Grid.Cols {
				bPanel.Idx = append(bPanel.Idx, bj)
				bPanel.Blocks = append(bPanel.Blocks, getBlock(l, b, myCol, k, bj))
			}
		}
		bPanel = ctx.Col.Bcast(pr, bPanel).(panel)

		// Every (bi, bj) pair is a local block of C: update it in place.
		for x, bi := range aPanel.Idx {
			for y, bj := range bPanel.Idx {
				blk := blockAt(l, c, myCol, bi, bj)
				matrix.Gemm(l.BlockHeight(bi), kw, l.BlockWidth(bj), aPanel.Blocks[x], bPanel.Blocks[y], blk, stride)
			}
		}
	}
	return nil
}
