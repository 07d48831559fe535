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

	for k := 0; k < nblk; k++ {
		pr := k % l.Grid.Rows
		pc := k % l.Grid.Cols

		// Block column k of A spreads along process rows and block row k of
		// B down process columns, each packed into one buffer.
		var aPanel, bPanel []float64
		if myCol == pc {
			aPanel = packPanel(l, a, myCol, myRow, nblk, k, k+1)
		}
		aPanel = ctx.Row.Bcast(pc, aPanel).([]float64)
		if myRow == pr {
			bPanel = packPanel(l, b, myCol, k, k+1, myCol, nblk)
		}
		bPanel = ctx.Col.Bcast(pr, bPanel).([]float64)

		// Every (bi, bj) pair is a local block of C: update it in place.
		panelUpdate(l, c, myCol, myRow, myCol, l.BlockWidth(k), aPanel, bPanel, matrix.Gemm)
	}
	return nil
}
