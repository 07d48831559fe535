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

// maxAbsDiff returns max_i |a[i]-b[i]|; the slices must have equal length.
func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// runOnGrid distributes a global matrix, runs body on every rank of the
// grid, and returns the collected global result.
func runOnGrid(t *testing.T, topo grid.Topology, l blockcyclic.Layout, global []float64,
	body func(ctx *blacs.Context, local []float64) error) []float64 {
	t.Helper()
	pieces := blockcyclic.Distribute(global, l)
	err := mpi.Run(topo.Count(), func(c *mpi.Comm) error {
		ctx, err := blacs.New(c, topo)
		if err != nil {
			return err
		}
		return body(ctx, pieces[c.Rank()].Data)
	})
	if err != nil {
		t.Fatal(err)
	}
	return blockcyclic.Collect(pieces, l)
}

func diagDominantGlobal(rng *rand.Rand, n int) []float64 {
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += math.Abs(a[i*n+j])
		}
		a[i*n+i] = s + 1
	}
	return a
}

func TestDistLUMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		n, nb int
		topo  grid.Topology
	}{
		{8, 2, grid.Topology{Rows: 2, Cols: 2}},
		{12, 2, grid.Topology{Rows: 2, Cols: 3}},
		{12, 3, grid.Topology{Rows: 1, Cols: 2}},
		{16, 4, grid.Topology{Rows: 1, Cols: 1}},
		{10, 3, grid.Topology{Rows: 2, Cols: 2}}, // uneven edge blocks
	}
	for _, tc := range cases {
		global := diagDominantGlobal(rng, tc.n)
		want := append([]float64{}, global...)
		if err := matrix.LUFactor(tc.n, want); err != nil {
			t.Fatal(err)
		}
		l := blockcyclic.Layout{M: tc.n, N: tc.n, MB: tc.nb, NB: tc.nb, Grid: tc.topo}
		got := runOnGrid(t, tc.topo, l, global, func(ctx *blacs.Context, local []float64) error {
			return DistLU(ctx, l, local)
		})
		if d := maxAbsDiff(got, want); d > 1e-8 {
			t.Errorf("n=%d nb=%d grid=%v: max diff %v", tc.n, tc.nb, tc.topo, d)
		}
	}
}

func TestDistLURejectsBadShapes(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		ctx, _ := blacs.New(c, grid.Topology{Rows: 1, Cols: 1})
		bad := blockcyclic.Layout{M: 4, N: 4, MB: 2, NB: 3, Grid: ctx.Grid}
		if DistLU(ctx, bad, make([]float64, 16)) == nil {
			return fmt.Errorf("non-square blocks accepted")
		}
		rect := blockcyclic.Layout{M: 4, N: 6, MB: 2, NB: 2, Grid: ctx.Grid}
		if DistLU(ctx, rect, make([]float64, 24)) == nil {
			return fmt.Errorf("rectangular matrix accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistMatMulMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []struct {
		n, nb int
		topo  grid.Topology
	}{
		{8, 2, grid.Topology{Rows: 2, Cols: 2}},
		{12, 2, grid.Topology{Rows: 2, Cols: 3}},
		{9, 2, grid.Topology{Rows: 2, Cols: 2}}, // uneven blocks
		{6, 3, grid.Topology{Rows: 1, Cols: 1}},
	}
	for _, tc := range cases {
		n := tc.n
		a := make([]float64, n*n)
		b := make([]float64, n*n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		want := make([]float64, n*n)
		matrix.Gemm(n, n, n, a, b, want, n)

		l := blockcyclic.Layout{M: n, N: n, MB: tc.nb, NB: tc.nb, Grid: tc.topo}
		aPieces := blockcyclic.Distribute(a, l)
		bPieces := blockcyclic.Distribute(b, l)
		cPieces := blockcyclic.Distribute(make([]float64, n*n), l)
		err := mpi.Run(tc.topo.Count(), func(c *mpi.Comm) error {
			ctx, err := blacs.New(c, tc.topo)
			if err != nil {
				return err
			}
			return DistMatMul(ctx, l, aPieces[c.Rank()].Data, bPieces[c.Rank()].Data, cPieces[c.Rank()].Data)
		})
		if err != nil {
			t.Fatal(err)
		}
		got := blockcyclic.Collect(cPieces, l)
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("n=%d grid=%v: max diff %v", n, tc.topo, d)
		}
	}
}

func TestJacobiConvergesToSolution(t *testing.T) {
	const n = 12
	topo := grid.Row1D(3)
	l := blockcyclic.Layout{M: n, N: n, MB: 2, NB: n, Grid: topo}
	lb := blockcyclic.Layout{M: n, N: 1, MB: 2, NB: 1, Grid: topo}

	// Build a strongly diagonally dominant system with known solution.
	a := make([]float64, n*n)
	xTrue := make([]float64, n)
	for i := 0; i < n; i++ {
		xTrue[i] = float64(i%4) + 1
		for j := 0; j < n; j++ {
			if i == j {
				a[i*n+j] = 2 * n
			} else {
				a[i*n+j] = 1.0 / (1.0 + float64(i+j))
			}
		}
	}
	b := make([]float64, n)
	matrix.Gemv(n, n, a, xTrue, b)

	aPieces := blockcyclic.Distribute(a, l)
	bPieces := blockcyclic.Distribute(b, lb)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		ctx, err := blacs.New(c, topo)
		if err != nil {
			return err
		}
		x := make([]float64, n)
		res, err := JacobiSweeps(ctx, l, aPieces[c.Rank()].Data, bPieces[c.Rank()].Data, x, 60)
		if err != nil {
			return err
		}
		if res > 1e-16 {
			return fmt.Errorf("residual %v after 60 sweeps", res)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-9 {
				return fmt.Errorf("x[%d] = %v, want %v", i, x[i], xTrue[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJacobiValidatesLayout(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		ctx, _ := blacs.New(c, grid.Topology{Rows: 1, Cols: 2})
		l := blockcyclic.Layout{M: 4, N: 4, MB: 2, NB: 2, Grid: ctx.Grid}
		if _, err := JacobiSweeps(ctx, l, nil, nil, make([]float64, 4), 1); err == nil {
			return fmt.Errorf("2-D layout accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFFT2DRoundTrip(t *testing.T) {
	const n = 16
	for _, p := range []int{1, 2, 4} {
		topo := grid.Row1D(p)
		l := blockcyclic.Layout{M: n, N: 2 * n, MB: 2, NB: 2 * n, Grid: topo}
		global := make([]float64, n*2*n)
		rng := rand.New(rand.NewSource(3))
		for i := range global {
			global[i] = rng.NormFloat64()
		}
		pieces := blockcyclic.Distribute(global, l)
		err := mpi.Run(p, func(c *mpi.Comm) error {
			ctx, err := blacs.New(c, topo)
			if err != nil {
				return err
			}
			if err := FFT2D(ctx, l, pieces[c.Rank()].Data, false); err != nil {
				return err
			}
			return FFT2D(ctx, l, pieces[c.Rank()].Data, true)
		})
		if err != nil {
			t.Fatal(err)
		}
		got := blockcyclic.Collect(pieces, l)
		if d := maxAbsDiff(got, global); d > 1e-9 {
			t.Errorf("p=%d: round trip drift %v", p, d)
		}
	}
}

func TestFFT2DForwardMatchesSerial(t *testing.T) {
	const n = 8
	topo := grid.Row1D(2)
	l := blockcyclic.Layout{M: n, N: 2 * n, MB: 2, NB: 2 * n, Grid: topo}
	global := make([]float64, n*2*n)
	rng := rand.New(rand.NewSource(4))
	for i := range global {
		global[i] = rng.NormFloat64()
	}

	// Serial reference: row FFTs, transpose, row FFTs, transpose.
	plan, err := matrix.NewFFTPlan(n, false)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([][]complex128, n)
	for i := range ref {
		ref[i] = make([]complex128, n)
		for j := 0; j < n; j++ {
			ref[i][j] = complex(global[i*2*n+2*j], global[i*2*n+2*j+1])
		}
	}
	for i := range ref {
		if err := plan.Transform(ref[i]); err != nil {
			t.Fatal(err)
		}
	}
	refT := make([][]complex128, n)
	for i := range refT {
		refT[i] = make([]complex128, n)
		for j := 0; j < n; j++ {
			refT[i][j] = ref[j][i]
		}
	}
	for i := range refT {
		if err := plan.Transform(refT[i]); err != nil {
			t.Fatal(err)
		}
	}
	// transpose back
	want := make([]float64, n*2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want[i*2*n+2*j] = real(refT[j][i])
			want[i*2*n+2*j+1] = imag(refT[j][i])
		}
	}

	pieces := blockcyclic.Distribute(global, l)
	err = mpi.Run(2, func(c *mpi.Comm) error {
		ctx, err := blacs.New(c, topo)
		if err != nil {
			return err
		}
		return FFT2D(ctx, l, pieces[c.Rank()].Data, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	got := blockcyclic.Collect(pieces, l)
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("forward 2-D FFT differs from serial by %v", d)
	}
}

func TestFFT2DValidates(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		ctx, _ := blacs.New(c, grid.Topology{Rows: 1, Cols: 1})
		l := blockcyclic.Layout{M: 12, N: 24, MB: 2, NB: 24, Grid: ctx.Grid}
		if FFT2D(ctx, l, make([]float64, 12*24), false) == nil {
			return fmt.Errorf("non-power-of-two accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMasterWorkerDistributesAllUnits(t *testing.T) {
	const units = 237
	for _, p := range []int{1, 2, 4} {
		counts := make(chan int, p)
		err := mpi.Run(p, func(c *mpi.Comm) error {
			ctx, err := blacs.New(c, grid.Row1D(p))
			if err != nil {
				return err
			}
			counts <- MasterWorkerRound(ctx, units, 10, 10)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		close(counts)
		total := 0
		for v := range counts {
			total += v
		}
		if total != units {
			t.Errorf("p=%d: %d units processed, want %d", p, total, units)
		}
	}
}

func TestMasterWorkerRepeatedRounds(t *testing.T) {
	const units, rounds = 55, 4
	totals := make(chan int, 3*rounds)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		ctx, err := blacs.New(c, grid.Row1D(3))
		if err != nil {
			return err
		}
		for r := 0; r < rounds; r++ {
			totals <- MasterWorkerRound(ctx, units, 7, 5)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(totals)
	sum := 0
	for v := range totals {
		sum += v
	}
	if sum != units*rounds {
		t.Errorf("total %d, want %d", sum, units*rounds)
	}
}

func TestBuildRejectsUnknownApp(t *testing.T) {
	if _, err := Build(Config{App: "nope", N: 8, NB: 2, Iterations: 1}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestBuildKnownApps(t *testing.T) {
	for _, app := range []string{"lu", "mm", "jacobi", "fft", "mw", "cg"} {
		a, err := Build(Config{App: app, N: 8, NB: 2, Iterations: 1})
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if a == nil {
			t.Fatalf("%s: nil app", app)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid lu", Config{App: "lu", N: 8, NB: 2, Iterations: 1}, true},
		{"valid mw without sizes", Config{App: "mw", Iterations: 3}, true},
		{"unknown app", Config{App: "summa", N: 8, NB: 2, Iterations: 1}, false},
		{"empty app", Config{N: 8, NB: 2, Iterations: 1}, false},
		{"zero iterations", Config{App: "lu", N: 8, NB: 2}, false},
		{"negative iterations", Config{App: "mw", Iterations: -1}, false},
		{"zero size", Config{App: "lu", NB: 2, Iterations: 1}, false},
		{"negative size", Config{App: "mm", N: -4, NB: 2, Iterations: 1}, false},
		{"zero block", Config{App: "jacobi", N: 8, Iterations: 1}, false},
		{"negative block", Config{App: "cg", N: 8, NB: -1, Iterations: 1}, false},
		{"fft non-power-of-two", Config{App: "fft", N: 12, NB: 2, Iterations: 1}, false},
		{"fft power of two", Config{App: "fft", N: 16, NB: 2, Iterations: 1}, true},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
		// Build must agree with Validate.
		if _, err := Build(tc.cfg); (err == nil) != tc.ok {
			t.Errorf("%s: Build disagrees with Validate (err=%v)", tc.name, err)
		}
	}
}
