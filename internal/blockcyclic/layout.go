// Package blockcyclic implements 2-D block-cyclic data layouts in the style
// of ScaLAPACK array descriptors: global matrices are tiled into MB x NB
// blocks and dealt cyclically onto a 2-D processor grid. The package
// provides the index arithmetic (ownership, global<->local maps, local
// extents) on which the redistribution library's table-based framework is
// built.
package blockcyclic

import (
	"fmt"

	"repro/internal/grid"
)

// Layout describes a global M x N matrix tiled into MB x NB blocks and
// distributed block-cyclically over a processor grid. Processor (r, c) of
// the grid corresponds to communicator rank r*Grid.Cols + c (row-major).
// Local storage is row-major with stride LocalCols.
type Layout struct {
	M, N   int // global dimensions
	MB, NB int // block dimensions
	Grid   grid.Topology
}

// Validate checks the layout invariants.
func (l Layout) Validate() error {
	switch {
	case l.M <= 0 || l.N <= 0:
		return fmt.Errorf("blockcyclic: non-positive global dims %dx%d", l.M, l.N)
	case l.MB <= 0 || l.NB <= 0:
		return fmt.Errorf("blockcyclic: non-positive block dims %dx%d", l.MB, l.NB)
	case !l.Grid.IsValid():
		return fmt.Errorf("blockcyclic: invalid grid %v", l.Grid)
	}
	return nil
}

// BlockRows returns the number of block rows, ceil(M/MB).
func (l Layout) BlockRows() int { return (l.M + l.MB - 1) / l.MB }

// BlockCols returns the number of block columns, ceil(N/NB).
func (l Layout) BlockCols() int { return (l.N + l.NB - 1) / l.NB }

// BlockHeight returns the height of global block row bi (the last block may
// be short).
func (l Layout) BlockHeight(bi int) int {
	h := l.M - bi*l.MB
	if h > l.MB {
		h = l.MB
	}
	return h
}

// BlockWidth returns the width of global block column bj.
func (l Layout) BlockWidth(bj int) int {
	w := l.N - bj*l.NB
	if w > l.NB {
		w = l.NB
	}
	return w
}

// Coords returns the grid coordinates of a communicator rank.
func (l Layout) Coords(rank int) (prow, pcol int) {
	return rank / l.Grid.Cols, rank % l.Grid.Cols
}

// Rank returns the communicator rank of grid coordinates (prow, pcol).
func (l Layout) Rank(prow, pcol int) int { return prow*l.Grid.Cols + pcol }

// numroc computes the number of rows or columns of a distributed matrix
// owned by process iproc, following ScaLAPACK's NUMROC.
func numroc(n, nb, iproc, nprocs int) int {
	nblocks := n / nb
	num := (nblocks / nprocs) * nb
	extra := nblocks % nprocs
	switch {
	case iproc < extra:
		num += nb
	case iproc == extra:
		num += n % nb
	}
	return num
}

// LocalRows returns the number of matrix rows stored on grid row prow.
func (l Layout) LocalRows(prow int) int { return numroc(l.M, l.MB, prow, l.Grid.Rows) }

// LocalCols returns the number of matrix columns stored on grid column pcol.
func (l Layout) LocalCols(pcol int) int { return numroc(l.N, l.NB, pcol, l.Grid.Cols) }

// LocalSize returns the number of float64 elements stored by rank.
func (l Layout) LocalSize(rank int) int {
	pr, pc := l.Coords(rank)
	return l.LocalRows(pr) * l.LocalCols(pc)
}

// GlobalToLocal maps a global element (i, j) to its owner's grid coordinates
// and the local (row-major) indices within that owner's storage.
func (l Layout) GlobalToLocal(i, j int) (prow, pcol, li, lj int) {
	bi, ii := i/l.MB, i%l.MB
	bj, jj := j/l.NB, j%l.NB
	prow, pcol = bi%l.Grid.Rows, bj%l.Grid.Cols
	li = (bi/l.Grid.Rows)*l.MB + ii
	lj = (bj/l.Grid.Cols)*l.NB + jj
	return
}

// LocalToGlobal maps local indices (li, lj) on grid process (prow, pcol)
// back to global element coordinates. It is the inverse of GlobalToLocal.
func (l Layout) LocalToGlobal(prow, pcol, li, lj int) (i, j int) {
	lbi, ii := li/l.MB, li%l.MB
	lbj, jj := lj/l.NB, lj%l.NB
	i = (lbi*l.Grid.Rows+prow)*l.MB + ii
	j = (lbj*l.Grid.Cols+pcol)*l.NB + jj
	return
}

// Matrix is one rank's piece of a block-cyclically distributed global
// matrix: the layout plus the rank's local row-major storage.
type Matrix struct {
	Layout Layout
	Rank   int
	Data   []float64 // LocalRows(prow) x LocalCols(pcol), row-major
}

// NewMatrix allocates a zeroed local piece for rank under the layout.
func NewMatrix(l Layout, rank int) *Matrix {
	return &Matrix{Layout: l, Rank: rank, Data: make([]float64, l.LocalSize(rank))}
}

// Cols returns the local column count.
func (m *Matrix) Cols() int {
	_, pc := m.Layout.Coords(m.Rank)
	return m.Layout.LocalCols(pc)
}

// Set writes the local element (li, lj).
func (m *Matrix) Set(li, lj int, v float64) { m.Data[li*m.Cols()+lj] = v }

// Distribute slices a dense row-major global matrix into per-rank local
// pieces under the layout.
//
//lint:allow testonly oracle: the dense ground truth the apps kernel tests, TestOutputsGolden and the redistrib tests scatter inputs with
func Distribute(global []float64, l Layout) []*Matrix {
	p := l.Grid.Count()
	out := make([]*Matrix, p)
	for r := 0; r < p; r++ {
		out[r] = NewMatrix(l, r)
	}
	for i := 0; i < l.M; i++ {
		for j := 0; j < l.N; j++ {
			pr, pc, li, lj := l.GlobalToLocal(i, j)
			rank := l.Rank(pr, pc)
			out[rank].Set(li, lj, global[i*l.N+j])
		}
	}
	return out
}

// Collect reassembles the dense global matrix from per-rank pieces. It is
// the inverse of Distribute.
//
//lint:allow testonly oracle: the apps kernel tests, TestOutputsGolden and the redistrib tests gather results with it to compare against serial kernels
func Collect(pieces []*Matrix, l Layout) []float64 {
	global := make([]float64, l.M*l.N)
	for rank, m := range pieces {
		pr, pc := l.Coords(rank)
		rows, cols := l.LocalRows(pr), l.LocalCols(pc)
		for li := 0; li < rows; li++ {
			for lj := 0; lj < cols; lj++ {
				gi, gj := l.LocalToGlobal(pr, pc, li, lj)
				global[gi*l.N+gj] = m.Data[li*cols+lj]
			}
		}
	}
	return global
}
