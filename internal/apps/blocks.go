// Package apps implements the paper's five workload applications (Table 1)
// on top of the resizing library: LU factorization (the PDGETRF analogue),
// SUMMA matrix-matrix multiplication (PDGEMM), a dense iterative Jacobi
// solver, a 2-D FFT image transform, and a synthetic master-worker
// application with fixed-time work units. All are resizable: they register
// their global arrays with the SDK's Context and reach a resize point at the
// end of every outer iteration.
package apps

import (
	"iter"

	"repro/internal/blockcyclic"
)

// blockAt returns a rank's local storage from the first element of global
// block (bi, bj) on; rows of the block lie l.LocalCols(myCol) apart. The
// caller must own the block.
func blockAt(l blockcyclic.Layout, local []float64, myCol, bi, bj int) []float64 {
	return local[(bi/l.Grid.Rows)*l.MB*l.LocalCols(myCol)+(bj/l.Grid.Cols)*l.NB:]
}

// panelRows yields the local-storage offset and width of every row of a
// panel, in packed order. A panel is a set of a rank's local blocks
// (bi, bj) packed into one buffer, block after block in (bi, bj) order,
// each block row-major: bi runs bi0, bi0+Rows, ... below bi1 and bj runs
// bj0, bj0+Cols, ... below bj1. A column panel fixes bj (bj1 = bj0+1), a
// row panel bi. Every rank of a process row owns the same block rows, and
// every rank of a process column the same block columns, so a rank
// receiving a broadcast panel finds each block by walking its own indices
// and summing block sizes; no index travels with the panel.
func panelRows(l blockcyclic.Layout, myCol, bi0, bi1, bj0, bj1 int) iter.Seq2[int, int] {
	return func(yield func(off, w int) bool) {
		stride := l.LocalCols(myCol)
		for bi := bi0; bi < bi1; bi += l.Grid.Rows {
			li := (bi / l.Grid.Rows) * l.MB
			h := l.BlockHeight(bi)
			for bj := bj0; bj < bj1; bj += l.Grid.Cols {
				lj := (bj / l.Grid.Cols) * l.NB
				w := l.BlockWidth(bj)
				for ii := 0; ii < h; ii++ {
					if !yield((li+ii)*stride+lj, w) {
						return
					}
				}
			}
		}
	}
}

// packPanel copies a panel out of local storage into one new buffer.
func packPanel(l blockcyclic.Layout, local []float64, myCol, bi0, bi1, bj0, bj1 int) []float64 {
	n := 0
	for _, w := range panelRows(l, myCol, bi0, bi1, bj0, bj1) {
		n += w
	}
	buf := make([]float64, 0, n)
	for off, w := range panelRows(l, myCol, bi0, bi1, bj0, bj1) {
		buf = append(buf, local[off:off+w]...)
	}
	return buf
}

// unpackPanel writes a packed panel back into local storage.
func unpackPanel(l blockcyclic.Layout, local []float64, myCol, bi0, bi1, bj0, bj1 int, buf []float64) {
	for off, w := range panelRows(l, myCol, bi0, bi1, bj0, bj1) {
		buf = buf[copy(local[off:off+w], buf):]
	}
}

// panelUpdate applies gemm (matrix.Gemm or GemmSub) to every local block
// (bi, bj) with bi from bi0 and bj from bj0, in (bi, bj) order: block bi of
// the column panel col (kw wide) times block bj of the row panel row (kw
// high) updates block (bi, bj) in place.
func panelUpdate(l blockcyclic.Layout, local []float64, myCol, bi0, bj0, kw int, col, row []float64,
	gemm func(m, k, n int, a, b, c []float64, ldc int)) {
	stride := l.LocalCols(myCol)
	for bi := bi0; bi < l.BlockRows(); bi += l.Grid.Rows {
		h := l.BlockHeight(bi)
		b := row
		for bj := bj0; bj < l.BlockCols(); bj += l.Grid.Cols {
			w := l.BlockWidth(bj)
			gemm(h, kw, w, col, b, blockAt(l, local, myCol, bi, bj), stride)
			b = b[kw*w:]
		}
		col = col[h*kw:]
	}
}
