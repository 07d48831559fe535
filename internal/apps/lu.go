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

	for k := 0; k < nblk; k++ {
		pr := k % l.Grid.Rows
		pc := k % l.Grid.Cols
		bh := l.BlockHeight(k)
		// The panels hold this rank's block rows and columns past k.
		bi0, bj0 := ownedAfter(k, myRow, l.Grid.Rows), ownedAfter(k, myCol, l.Grid.Cols)

		// Factor the diagonal block and spread it down process column pc.
		// Each panel is packed once, solved in its buffer, written back and
		// broadcast; receivers only read the diagonal and the panels.
		var diag, colPanel, rowPanel []float64
		if myCol == pc {
			if myRow == pr {
				diag = packPanel(l, local, myCol, k, k+1, k, k+1)
				if err := matrix.LUFactor(bh, diag); err != nil {
					return fmt.Errorf("apps: DistLU block %d: %w", k, err)
				}
				unpackPanel(l, local, myCol, k, k+1, k, k+1, diag)
			}
			diag = ctx.Col.Bcast(pr, diag).([]float64)

			// Column panel: L_ik = A_ik * U_kk^{-1}.
			colPanel = packPanel(l, local, myCol, bi0, nblk, k, k+1)
			blk := colPanel
			for bi := bi0; bi < nblk; bi += l.Grid.Rows {
				h := l.BlockHeight(bi)
				matrix.TrsmRightUpper(h, bh, diag, blk[:h*bh])
				blk = blk[h*bh:]
			}
			unpackPanel(l, local, myCol, bi0, nblk, k, k+1, colPanel)
		}
		// Row panel: U_kj = L_kk^{-1} * A_kj (needs the factored diagonal).
		if myRow == pr {
			diag = ctx.Row.Bcast(pc, diag).([]float64)
			rowPanel = packPanel(l, local, myCol, k, k+1, bj0, nblk)
			blk := rowPanel
			for bj := bj0; bj < nblk; bj += l.Grid.Cols {
				w := l.BlockWidth(bj)
				matrix.TrsmLeftLowerUnit(bh, w, diag, blk[:bh*w])
				blk = blk[bh*w:]
			}
			unpackPanel(l, local, myCol, k, k+1, bj0, nblk, rowPanel)
		}

		// Broadcast the column panel along process rows and the row panel
		// down process columns, then apply the trailing update in place:
		// every (bi, bj) pair is a local block.
		colPanel = ctx.Row.Bcast(pc, colPanel).([]float64)
		rowPanel = ctx.Col.Bcast(pr, rowPanel).([]float64)
		panelUpdate(l, local, myCol, bi0, bj0, bh, colPanel, rowPanel, matrix.GemmSub)
	}
	return nil
}

// ownedAfter returns the first block index past k that grid row (or
// column) p of n owns.
func ownedAfter(k, p, n int) int { return k + 1 + ((p-k-1)%n+n)%n }
