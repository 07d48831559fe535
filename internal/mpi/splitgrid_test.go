package mpi

import (
	"fmt"
	"slices"
	"testing"
)

// sameComm reports how got differs from want, the communicator Split
// builds: members, their order and the caller's rank must agree.
func sameComm(got, want *Comm) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("got %v, Split gives %v", got, want)
	}
	if got == nil {
		return nil
	}
	if got.rank != want.rank || !slices.Equal(got.procs, want.procs) {
		return fmt.Errorf("rank %d of %d members, Split gives rank %d of %d (or other members)",
			got.rank, len(got.procs), want.rank, len(want.procs))
	}
	return nil
}

func TestSplitGridMatchesSplit(t *testing.T) {
	// Every grid up to 4x4, laid over a communicator with two ranks more
	// than the grid needs, must give every rank the row and column
	// communicators of the two Split calls blacs made before SplitGrid.
	for rows := 1; rows <= 4; rows++ {
		for cols := 1; cols <= 4; cols++ {
			err := Run(rows*cols+2, func(c *Comm) error {
				r, q, rowColor, colColor := 0, 0, -1, -1
				if me := c.Rank(); me < rows*cols {
					r, q = me/cols, me%cols
					rowColor, colColor = r, rows+q
				}
				wantRow, wantCol := c.Split(rowColor, q), c.Split(colColor, r)
				row, col := c.SplitGrid(rows, cols)
				if err := sameComm(row, wantRow); err != nil {
					return fmt.Errorf("rank %d row: %w", c.Rank(), err)
				}
				if err := sameComm(col, wantCol); err != nil {
					return fmt.Errorf("rank %d column: %w", c.Rank(), err)
				}
				// The carved communicators work: a row sums its members.
				if row != nil {
					want := float64(cols*r*cols + cols*(cols-1)/2)
					if got := row.AllreduceSum(float64(c.Rank())); got != want {
						return fmt.Errorf("rank %d: row sum %v, want %v", c.Rank(), got, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%dx%d: %v", rows, cols, err)
			}
		}
	}
}

func TestSplitGridOutsideRanksGetNil(t *testing.T) {
	err := Run(7, func(c *Comm) error {
		row, col := c.SplitGrid(2, 2)
		if in := c.Rank() < 4; (row != nil) != in || (col != nil) != in {
			return fmt.Errorf("rank %d: row %v, col %v", c.Rank(), row, col)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitGridContextsAreDistinct(t *testing.T) {
	// On a 2x2 grid rank 0's row peer (rank 1) and column peer (rank 2)
	// both have rank 1 in the communicator they share with rank 0. Rank 2
	// sends on the column first; rank 0 must still receive rank 1's row
	// message on the row, and the column message on the column.
	err := Run(4, func(c *Comm) error {
		row, col := c.SplitGrid(2, 2)
		switch c.Rank() {
		case 2:
			col.Send(0, 7, "column")
		case 1:
			row.Send(0, 7, "row")
		}
		c.Barrier()
		if c.Rank() != 0 {
			return nil
		}
		if v, _, _ := row.Recv(1, 7); v != "row" {
			return fmt.Errorf("row received %v", v)
		}
		if v, _, _ := col.Recv(1, 7); v != "column" {
			return fmt.Errorf("column received %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every row and every column of one grid has a context of its own, and
	// none is the parent's.
	const rows, cols = 3, 4
	err = Run(rows*cols, func(c *Comm) error {
		row, col := c.SplitGrid(rows, cols)
		ctxs := c.GatherFloats(0, []float64{float64(row.ctx), float64(col.ctx)})
		if c.Rank() != 0 {
			return nil
		}
		for a, x := range ctxs {
			for b, y := range ctxs {
				sameRow, sameCol := a/cols == b/cols, a%cols == b%cols
				if (x[0] == y[0]) != sameRow || (x[1] == y[1]) != sameCol || x[0] == y[1] {
					return fmt.Errorf("ranks %d and %d: contexts %v and %v", a, b, x, y)
				}
			}
			if x[0] == float64(c.ctx) || x[1] == float64(c.ctx) {
				return fmt.Errorf("rank %d shares the parent's context %d: %v", a, c.ctx, x)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
