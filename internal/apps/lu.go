package apps

import (
	"fmt"

	"repro/internal/blacs"
	"repro/internal/blockcyclic"
	"repro/internal/matrix"
)

// DistLU performs an in-place right-looking block LU factorization (no
// pivoting) of a 2-D block-cyclically distributed matrix, the analogue of
// ScaLAPACK's PDGETRF that the paper's LU workload calls. The layout must
// have square blocks (MB == NB) and a square global matrix. Collective over
// the grid: every in-grid rank passes its local piece.
//
// The communication structure matches the real routine: the diagonal block
// is factored and broadcast down its process column; the column panel is
// triangular-solved and broadcast along process rows; the row panel is
// solved and broadcast down process columns; every rank then applies the
// trailing GEMM update to its local blocks.
func DistLU(ctx *blacs.Context, l blockcyclic.Layout, local []float64) error {
	if l.MB != l.NB {
		return fmt.Errorf("apps: DistLU needs square blocks, got %dx%d", l.MB, l.NB)
	}
	if l.M != l.N {
		return fmt.Errorf("apps: DistLU needs a square matrix, got %dx%d", l.M, l.N)
	}
	if !ctx.InGrid {
		return nil
	}
	nblk := l.BlockRows()
	myRow, myCol := ctx.MyRow, ctx.MyCol
	stride := l.LocalCols(myCol)

	for k := 0; k < nblk; k++ {
		pr := k % l.Grid.Rows
		pc := k % l.Grid.Cols
		bh := l.BlockHeight(k)

		// Factor the diagonal block and spread it down process column pc.
		// Each solved panel block is written back and kept for the
		// broadcasts below.
		var diag []float64
		var colPanel, rowPanel panel
		if myCol == pc {
			if myRow == pr {
				diag = getBlock(l, local, myCol, k, k)
				if err := matrix.LUFactor(bh, diag); err != nil {
					return fmt.Errorf("apps: DistLU block %d: %w", k, err)
				}
				setBlock(l, local, myCol, k, k, diag)
			}
			diag = ctx.Col.BcastFloats(pr, diag)

			// Column panel: L_ik = A_ik * U_kk^{-1}.
			for bi := myRow; bi < nblk; bi += l.Grid.Rows {
				if bi <= k {
					continue
				}
				blk := getBlock(l, local, myCol, bi, k)
				matrix.TrsmRightUpper(l.BlockHeight(bi), bh, diag, blk)
				setBlock(l, local, myCol, bi, k, blk)
				colPanel.Idx = append(colPanel.Idx, bi)
				colPanel.Blocks = append(colPanel.Blocks, blk)
			}
		}
		// Row panel: U_kj = L_kk^{-1} * A_kj (needs the factored diagonal).
		if myRow == pr {
			diag = ctx.Row.BcastFloats(pc, diag)
			for bj := myCol; bj < nblk; bj += l.Grid.Cols {
				if bj <= k {
					continue
				}
				blk := getBlock(l, local, myCol, k, bj)
				matrix.TrsmLeftLowerUnit(bh, l.BlockWidth(bj), diag, blk)
				setBlock(l, local, myCol, k, bj, blk)
				rowPanel.Idx = append(rowPanel.Idx, bj)
				rowPanel.Blocks = append(rowPanel.Blocks, blk)
			}
		}

		// Broadcast the column panel along process rows and the row panel
		// down process columns, then apply the trailing update in place:
		// every (bi, bj) pair is a local block.
		colPanel = ctx.Row.Bcast(pc, colPanel).(panel)
		rowPanel = ctx.Col.Bcast(pr, rowPanel).(panel)
		for x, bi := range colPanel.Idx {
			for y, bj := range rowPanel.Idx {
				blk := blockAt(l, local, myCol, bi, bj)
				matrix.GemmSub(l.BlockHeight(bi), bh, l.BlockWidth(bj), colPanel.Blocks[x], rowPanel.Blocks[y], blk, stride)
			}
		}
	}
	return nil
}
