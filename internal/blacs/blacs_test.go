package blacs

import (
	"fmt"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
)

func TestContextGridCoordinates(t *testing.T) {
	err := mpi.Run(6, func(c *mpi.Comm) error {
		ctx, err := New(c, grid.Topology{Rows: 2, Cols: 3})
		if err != nil {
			return err
		}
		wantRow, wantCol := c.Rank()/3, c.Rank()%3
		if !ctx.InGrid || ctx.MyRow != wantRow || ctx.MyCol != wantCol {
			return fmt.Errorf("rank %d: coords (%d,%d), want (%d,%d)",
				c.Rank(), ctx.MyRow, ctx.MyCol, wantRow, wantCol)
		}
		if ctx.Row.Size() != 3 || ctx.Row.Rank() != wantCol {
			return fmt.Errorf("rank %d: row comm %d/%d", c.Rank(), ctx.Row.Size(), ctx.Row.Rank())
		}
		if ctx.Col.Size() != 2 || ctx.Col.Rank() != wantRow {
			return fmt.Errorf("rank %d: col comm %d/%d", c.Rank(), ctx.Col.Size(), ctx.Col.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestContextRanksOutsideGrid(t *testing.T) {
	err := mpi.Run(6, func(c *mpi.Comm) error {
		ctx, err := New(c, grid.Topology{Rows: 2, Cols: 2})
		if err != nil {
			return err
		}
		if c.Rank() >= 4 {
			if ctx.InGrid || ctx.Row != nil || ctx.Col != nil {
				return fmt.Errorf("rank %d should be outside the grid", c.Rank())
			}
			return nil
		}
		if !ctx.InGrid {
			return fmt.Errorf("rank %d should be in the grid", c.Rank())
		}
		// Row broadcast only among grid members.
		v := ctx.Row.BcastInt(0, ctx.MyRow*10)
		if v != ctx.MyRow*10 {
			return fmt.Errorf("rank %d: row bcast got %d", c.Rank(), v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestContextRowColumnIndependence(t *testing.T) {
	err := mpi.Run(4, func(c *mpi.Comm) error {
		ctx, err := New(c, grid.Topology{Rows: 2, Cols: 2})
		if err != nil {
			return err
		}
		rowSum := ctx.Row.AllreduceSum(float64(c.Rank()))
		colSum := ctx.Col.AllreduceSum(float64(c.Rank()))
		wantRow := float64(ctx.MyRow*2*2 + 1) // ranks r*2 and r*2+1
		wantCol := float64(ctx.MyCol*2 + 2)   // ranks c and c+2
		if rowSum != wantRow || colSum != wantCol {
			return fmt.Errorf("rank %d: sums %v/%v want %v/%v", c.Rank(), rowSum, colSum, wantRow, wantCol)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestContextValidation(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := New(c, grid.Topology{Rows: 2, Cols: 2}); err == nil {
			return fmt.Errorf("oversized topology accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(1, func(c *mpi.Comm) error {
		if _, err := New(c, grid.Topology{}); err == nil {
			return fmt.Errorf("invalid topology accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestContextRecreateAfterGrow(t *testing.T) {
	// Mimic the resize flow: 1x2 grid grows to 2x2 after a spawn+merge.
	err := mpi.Run(2, func(c *mpi.Comm) error {
		ctx, err := New(c, grid.Topology{Rows: 1, Cols: 2})
		if err != nil {
			return err
		}
		if ctx.Row.Size() != 2 {
			return fmt.Errorf("initial row size %d", ctx.Row.Size())
		}
		ic := c.Spawn(2, func(child *mpi.Intercomm) error {
			m := child.Merge()
			ctx2, err := New(m, grid.Topology{Rows: 2, Cols: 2})
			if err != nil {
				return err
			}
			if !ctx2.InGrid || ctx2.MyRow != 1 {
				return fmt.Errorf("child coords (%d,%d)", ctx2.MyRow, ctx2.MyCol)
			}
			s := ctx2.Col.AllreduceSum(1)
			if s != 2 {
				return fmt.Errorf("child col sum %v", s)
			}
			return nil
		})
		m := ic.Merge()
		ctx2, err := New(m, grid.Topology{Rows: 2, Cols: 2})
		if err != nil {
			return err
		}
		if ctx2.MyRow != 0 || ctx2.MyCol != c.Rank() {
			return fmt.Errorf("parent coords (%d,%d)", ctx2.MyRow, ctx2.MyCol)
		}
		s := ctx2.Col.AllreduceSum(1)
		if s != 2 {
			return fmt.Errorf("parent col sum %v", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
