package apps

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blacs"
	"repro/internal/blockcyclic"
	"repro/internal/grid"
	"repro/internal/matrix"
	"repro/internal/mpi"
)

func TestDistMatVecMatchesSerial(t *testing.T) {
	const n = 10
	topo := grid.Topology{Rows: 2, Cols: 2}
	l := blockcyclic.Layout{M: n, N: n, MB: 3, NB: 3, Grid: topo}
	rng := rand.New(rand.NewSource(7))
	a := randMatGlobal(rng, n)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	matrix.Gemv(n, n, a, x, want)

	pieces := blockcyclic.Distribute(a, l)
	err := mpi.Run(4, func(c *mpi.Comm) error {
		ctx, err := blacs.New(c, topo)
		if err != nil {
			return err
		}
		got, err := DistMatVec(ctx, l, pieces[c.Rank()].Data, x)
		if err != nil {
			return err
		}
		if d := maxAbsDiff(got, want); d > 1e-10 {
			return fmt.Errorf("rank %d: diff %v", c.Rank(), d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// matVecElementwise is the loop DistMatVec replaced: one rank's partial
// products, mapping every local element to its global column.
func matVecElementwise(l blockcyclic.Layout, pr, pc int, a, x []float64) []float64 {
	partial := make([]float64, l.M)
	rows, cols := l.LocalRows(pr), l.LocalCols(pc)
	for li := 0; li < rows; li++ {
		gi, _ := l.LocalToGlobal(pr, pc, li, 0)
		s := 0.0
		base := li * cols
		for lj := 0; lj < cols; lj++ {
			_, gj := l.LocalToGlobal(pr, pc, li, lj)
			s += a[base+lj] * x[gj]
		}
		partial[gi] += s
	}
	return partial
}

// TestDistMatVecMatchesElementwise holds the block walk to the
// element-by-element loop bit for bit on ragged and rectangular layouts.
func TestDistMatVecMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, l := range []blockcyclic.Layout{
		{M: 100, N: 100, MB: 7, NB: 7, Grid: grid.Topology{Rows: 2, Cols: 3}},
		{M: 90, N: 90, MB: 11, NB: 11, Grid: grid.Topology{Rows: 3, Cols: 2}},
		{M: 101, N: 101, MB: 9, NB: 9, Grid: grid.Topology{Rows: 2, Cols: 2}},
		{M: 37, N: 53, MB: 4, NB: 6, Grid: grid.Topology{Rows: 2, Cols: 3}},
		{M: 20, N: 5, MB: 3, NB: 8, Grid: grid.Topology{Rows: 3, Cols: 1}},
		{M: 9, N: 9, MB: 2, NB: 2, Grid: grid.Topology{Rows: 1, Cols: 1}},
	} {
		a := make([]float64, l.M*l.N)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		x := make([]float64, l.N)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		pieces := blockcyclic.Distribute(a, l)
		err := mpi.Run(l.Grid.Count(), func(c *mpi.Comm) error {
			ctx, err := blacs.New(c, l.Grid)
			if err != nil {
				return err
			}
			local := pieces[c.Rank()].Data
			got, err := DistMatVec(ctx, l, local, x)
			if err != nil {
				return err
			}
			want := c.Allreduce(matVecElementwise(l, ctx.MyRow, ctx.MyCol, local, x), mpi.SumOp)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					return fmt.Errorf("rank %d: y[%d] = %v, elementwise %v", c.Rank(), i, got[i], want[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%dx%d blocks %dx%d grid %v: %v", l.M, l.N, l.MB, l.NB, l.Grid, err)
		}
	}
}

func randMatGlobal(rng *rand.Rand, n int) []float64 {
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	return a
}

// spdGlobal builds a symmetric positive definite matrix.
func spdGlobal(n int) []float64 {
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = 1.0 / (1.0 + math.Abs(float64(i-j)))
			if i == j {
				a[i*n+j] += float64(n)
			}
		}
	}
	return a
}

func TestDistCGConverges(t *testing.T) {
	const n = 12
	for _, topo := range []grid.Topology{
		{Rows: 1, Cols: 1},
		{Rows: 2, Cols: 2},
		{Rows: 2, Cols: 3},
	} {
		l := blockcyclic.Layout{M: n, N: n, MB: 2, NB: 2, Grid: topo}
		a := spdGlobal(n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = float64(i%5) - 2
		}
		b := make([]float64, n)
		matrix.Gemv(n, n, a, xTrue, b)
		pieces := blockcyclic.Distribute(a, l)
		err := mpi.Run(topo.Count(), func(c *mpi.Comm) error {
			ctx, err := blacs.New(c, topo)
			if err != nil {
				return err
			}
			x := make([]float64, n)
			res, err := DistCG(ctx, l, pieces[c.Rank()].Data, b, x, n+2)
			if err != nil {
				return err
			}
			if res > 1e-14 {
				return fmt.Errorf("residual %v", res)
			}
			for i := range x {
				if math.Abs(x[i]-xTrue[i]) > 1e-6 {
					return fmt.Errorf("x[%d] = %v, want %v", i, x[i], xTrue[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("grid %v: %v", topo, err)
		}
	}
}

func TestDistCGValidates(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		ctx, _ := blacs.New(c, grid.Topology{Rows: 1, Cols: 1})
		l := blockcyclic.Layout{M: 4, N: 4, MB: 2, NB: 2, Grid: ctx.Grid}
		if _, err := DistCG(ctx, l, make([]float64, 16), make([]float64, 2), make([]float64, 4), 1); err == nil {
			return fmt.Errorf("short rhs accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuildCGRunner(t *testing.T) {
	a, err := Build(Config{App: "cg", N: 8, NB: 2, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a == nil {
		t.Fatal("nil app")
	}
}
