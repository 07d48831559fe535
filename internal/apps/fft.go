package apps

import (
	"fmt"

	"repro/internal/blacs"
	"repro/internal/blockcyclic"
	"repro/internal/matrix"
)

// FFT2D applies a 2-D complex FFT (forward or inverse) to an n x n image
// distributed by rows in a 1-D block-cyclic layout. The local data is
// interleaved complex: row i holds 2n floats (re, im, re, im, ...), so the
// registered resize array has global shape n x 2n with NB = 2n.
//
// The transform is the classic transpose algorithm: FFT every local row,
// globally transpose (an all-to-all exchange), FFT every local row again,
// and transpose back so the data returns to its original orientation.
// Collective over the grid.
func FFT2D(ctx *blacs.Context, l blockcyclic.Layout, data []float64, inverse bool) error {
	if l.Grid.Cols != 1 {
		return fmt.Errorf("apps: FFT2D needs a 1-D row layout, got %v", l.Grid)
	}
	n := l.M
	if l.N != 2*n {
		return fmt.Errorf("apps: FFT2D needs interleaved complex rows (N == 2M), got %dx%d", l.M, l.N)
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("apps: FFT2D size %d is not a power of two", n)
	}
	if !ctx.InGrid {
		return nil
	}

	plan, err := matrix.NewFFTPlan(n, inverse)
	if err != nil {
		return err
	}
	if err := fftLocalRows(plan, n, data); err != nil {
		return err
	}
	if err := transpose(ctx, l, data); err != nil {
		return err
	}
	if err := fftLocalRows(plan, n, data); err != nil {
		return err
	}
	return transpose(ctx, l, data)
}

// fftLocalRows transforms every locally stored row of length n in place,
// reading the twiddles from one plan.
func fftLocalRows(plan *matrix.FFTPlan, n int, data []float64) error {
	rows := len(data) / (2 * n)
	buf := make([]complex128, n)
	for li := 0; li < rows; li++ {
		row := data[li*2*n : (li+1)*2*n]
		for j := 0; j < n; j++ {
			buf[j] = complex(row[2*j], row[2*j+1])
		}
		if err := plan.Transform(buf); err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			row[2*j] = real(buf[j])
			row[2*j+1] = imag(buf[j])
		}
	}
	return nil
}

// transpose exchanges the distributed matrix with its transpose: element
// (i, j) moves to row j, column i. Rows keep the same 1-D block-cyclic
// distribution. Implemented as a packed all-to-all over the grid ranks.
func transpose(ctx *blacs.Context, l blockcyclic.Layout, data []float64) error {
	comm := ctx.Comm
	p := l.Grid.Rows
	n := l.M
	me := comm.Rank()

	// Global row indices owned by each rank, in local order.
	owned := make([][]int, p)
	for r := 0; r < p; r++ {
		rows := l.LocalRows(r)
		owned[r] = make([]int, rows)
		for li := 0; li < rows; li++ {
			gi, _ := l.LocalToGlobal(r, 0, li, 0)
			owned[r][li] = gi
		}
	}

	// Pack: for destination rank r, send (re, im) of elements (i, j) for
	// every j owned by r (ascending) and every local i (ascending).
	sendbufs := make([][]float64, p)
	for r := 0; r < p; r++ {
		buf := make([]float64, 0, 2*len(owned[r])*len(owned[me]))
		for _, j := range owned[r] {
			for li := range owned[me] {
				buf = append(buf, data[li*2*n+2*j], data[li*2*n+2*j+1])
			}
		}
		sendbufs[r] = buf
	}
	recv := comm.Alltoallv(sendbufs)

	// Unpack: from rank s I get, for each of my rows j (ascending), the
	// elements (i, j) for s's rows i (ascending) — these become columns i
	// of my new row j.
	for s := 0; s < p; s++ {
		buf := recv[s]
		k := 0
		for lj := range owned[me] {
			for _, i := range owned[s] {
				data[lj*2*n+2*i] = buf[k]
				data[lj*2*n+2*i+1] = buf[k+1]
				k += 2
			}
		}
	}
	return nil
}
