// Package apps implements the paper's five workload applications (Table 1)
// on top of the resizing library: LU factorization (the PDGETRF analogue),
// SUMMA matrix-matrix multiplication (PDGEMM), a dense iterative Jacobi
// solver, a 2-D FFT image transform, and a synthetic master-worker
// application with fixed-time work units. All are resizable: they register
// their global arrays with the resize session and call Resize at the end of
// every outer iteration.
package apps

import (
	"repro/internal/blockcyclic"
)

// blockAt returns a rank's local storage from the first element of global
// block (bi, bj) on; rows of the block lie l.LocalCols(myCol) apart. The
// caller must own the block.
func blockAt(l blockcyclic.Layout, local []float64, myCol, bi, bj int) []float64 {
	return local[(bi/l.Grid.Rows)*l.MB*l.LocalCols(myCol)+(bj/l.Grid.Cols)*l.NB:]
}

// getBlock copies global block (bi, bj) out of a rank's local storage.
// The caller must own the block.
func getBlock(l blockcyclic.Layout, local []float64, myCol, bi, bj int) []float64 {
	h, w := l.BlockHeight(bi), l.BlockWidth(bj)
	src, stride := blockAt(l, local, myCol, bi, bj), l.LocalCols(myCol)
	out := make([]float64, h*w)
	for ii := 0; ii < h; ii++ {
		copy(out[ii*w:(ii+1)*w], src[ii*stride:])
	}
	return out
}

// setBlock writes a contiguous block back into local storage.
func setBlock(l blockcyclic.Layout, local []float64, myCol, bi, bj int, blk []float64) {
	h, w := l.BlockHeight(bi), l.BlockWidth(bj)
	dst, stride := blockAt(l, local, myCol, bi, bj), l.LocalCols(myCol)
	for ii := 0; ii < h; ii++ {
		copy(dst[ii*stride:ii*stride+w], blk[ii*w:(ii+1)*w])
	}
}

// panel is a broadcast bundle of blocks keyed by global block index.
type panel struct {
	Idx    []int
	Blocks [][]float64
}
