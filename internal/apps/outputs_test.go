package apps

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/blacs"
	"repro/internal/blockcyclic"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/resize"
	"repro/internal/scheduler"
	"repro/pkg/reshape"
)

var update = flag.Bool("update", false, "rewrite testdata/outputs.golden")

// digest is the SHA-256 of the float64 bit patterns of xs, so two outputs
// share a digest only when they agree bit for bit.
func digest(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// The grid tours the repository benchmark resizes its applications
// through: out to the largest grid and back, one resize per iteration.
var (
	goldenTour2D = []grid.Topology{{Rows: 1, Cols: 2}, {Rows: 2, Cols: 2}, {Rows: 2, Cols: 3}, {Rows: 3, Cols: 3},
		{Rows: 2, Cols: 3}, {Rows: 2, Cols: 2}, {Rows: 1, Cols: 2}}
	goldenTour1D = []grid.Topology{grid.Row1D(2), grid.Row1D(4), grid.Row1D(6), grid.Row1D(8),
		grid.Row1D(6), grid.Row1D(4), grid.Row1D(2)}
)

// finalArrays wraps an application and gathers every registered array
// into global row-major form after its last iteration. Ranks own disjoint
// elements, so only the map needs the lock.
type finalArrays struct {
	inner  reshape.App
	last   int
	mu     sync.Mutex
	global map[string][]float64
}

func (f *finalArrays) Init(rc *reshape.Context) error { return f.inner.Init(rc) }

func (f *finalArrays) Iterate(rc *reshape.Context) error {
	if err := f.inner.Iterate(rc); err != nil {
		return err
	}
	if rc.Iter() != f.last || rc.Rank() >= rc.Topo().Count() {
		return nil
	}
	for _, a := range rc.Arrays() {
		l := a.LayoutFor(rc.Topo())
		f.mu.Lock()
		g := f.global[a.Name]
		if g == nil {
			g = make([]float64, a.M*a.N)
			f.global[a.Name] = g
		}
		f.mu.Unlock()
		pr, pc := l.Coords(rc.Rank())
		rows, cols := l.LocalRows(pr), l.LocalCols(pc)
		for li := 0; li < rows; li++ {
			for lj := 0; lj < cols; lj++ {
				gi, gj := l.LocalToGlobal(pr, pc, li, lj)
				g[gi*a.N+gj] = a.Data[li*cols+lj]
			}
		}
	}
	return nil
}

// tourDigests runs cfg through tour, resizing after every iteration, and
// writes one line per registered array and replicated vector.
func tourDigests(t *testing.T, out *bytes.Buffer, cfg Config, tour []grid.Topology) {
	t.Helper()
	app, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var script []scheduler.Decision
	for i := 1; i < len(tour); i++ {
		act := scheduler.ActionExpand
		if tour[i].Count() < tour[i-1].Count() {
			act = scheduler.ActionShrink
		}
		script = append(script, scheduler.Decision{Action: act, Target: tour[i]})
	}
	probe := &finalArrays{inner: app, last: len(tour) - 1, global: make(map[string][]float64)}
	rep, err := reshape.Run(context.Background(), probe,
		reshape.WithScheduler(&resize.ScriptedClient{Script: script}),
		reshape.WithTopology(tour[0]),
		reshape.WithMaxIterations(len(tour)),
		reshape.WithResizeEvery(1))
	if err != nil {
		t.Fatalf("%s tour: %v", cfg.App, err)
	}
	if rep.FinalTopo != tour[len(tour)-1] {
		t.Fatalf("%s tour ended on %v", cfg.App, rep.FinalTopo)
	}
	tag := fmt.Sprintf("tour %s n=%d nb=%d", cfg.App, cfg.N, cfg.NB)
	for _, name := range sortedKeys(probe.global) {
		fmt.Fprintf(out, "%s array %s %s\n", tag, name, digest(probe.global[name]))
	}
	for _, name := range sortedKeys(rep.Replicated) {
		fmt.Fprintf(out, "%s replicated %s %s\n", tag, name, digest(rep.Replicated[name]))
	}
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// onGrid runs body on every rank of topo and fails the test on any error.
func onGrid(t *testing.T, topo grid.Topology, body func(ctx *blacs.Context) error) {
	t.Helper()
	err := mpi.Run(topo.Count(), func(c *mpi.Comm) error {
		ctx, err := blacs.New(c, topo)
		if err != nil {
			return err
		}
		return body(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// raggedLayouts are square layouts whose edge blocks are short.
var raggedLayouts = []blockcyclic.Layout{
	{M: 100, N: 100, MB: 7, NB: 7, Grid: grid.Topology{Rows: 2, Cols: 3}},
	{M: 90, N: 90, MB: 11, NB: 11, Grid: grid.Topology{Rows: 3, Cols: 2}},
	{M: 101, N: 101, MB: 9, NB: 9, Grid: grid.Topology{Rows: 2, Cols: 2}},
}

// directDigests calls the distributed kernels directly on ragged layouts
// and writes one line per output.
func directDigests(t *testing.T, out *bytes.Buffer) {
	t.Helper()
	for _, l := range raggedLayouts {
		n := l.N
		tag := fmt.Sprintf("n=%d nb=%d grid=%dx%d", n, l.NB, l.Grid.Rows, l.Grid.Cols)
		rng := rand.New(rand.NewSource(int64(n)))

		// DistLU on a banded matrix, so the factor's panels hold exact
		// zeros outside the band.
		band := diagDominantGlobal(rng, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i-j > n/4 || j-i > n/3 {
					band[i*n+i] -= math.Abs(band[i*n+j])
					band[i*n+j] = 0
				}
			}
		}
		lu := blockcyclic.Distribute(band, l)
		for range n {
			rng.NormFloat64() // keeps the draws below on the inputs the golden recorded
		}
		onGrid(t, l.Grid, func(ctx *blacs.Context) error {
			return DistLU(ctx, l, lu[ctx.Comm.Rank()].Data)
		})
		fmt.Fprintf(out, "DistLU %s %s\n", tag, digest(blockcyclic.Collect(lu, l)))

		// DistMatMul with scattered zeros and a zero row in A, so the
		// kernel's zero skip is taken and C holds exact zeros.
		a, b := randMatGlobal(rng, n), randMatGlobal(rng, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (i*j)%7 == 3 || i == n/2 {
					a[i*n+j] = 0
				}
			}
		}
		ap, bp := blockcyclic.Distribute(a, l), blockcyclic.Distribute(b, l)
		cp := blockcyclic.Distribute(make([]float64, n*n), l)
		onGrid(t, l.Grid, func(ctx *blacs.Context) error {
			me := ctx.Comm.Rank()
			return DistMatMul(ctx, l, ap[me].Data, bp[me].Data, cp[me].Data)
		})
		fmt.Fprintf(out, "DistMatMul %s %s\n", tag, digest(blockcyclic.Collect(cp, l)))

		// DistMatVec and DistCG on an SPD matrix.
		spd := blockcyclic.Distribute(spdGlobal(n), l)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var y, cgx []float64
		var rr float64
		onGrid(t, l.Grid, func(ctx *blacs.Context) error {
			me := ctx.Comm.Rank()
			got, err := DistMatVec(ctx, l, spd[me].Data, x)
			if err != nil {
				return err
			}
			xs := make([]float64, n)
			res, err := DistCG(ctx, l, spd[me].Data, x, xs, 6)
			if me == 0 {
				y, cgx, rr = got, xs, res
			}
			return err
		})
		fmt.Fprintf(out, "DistMatVec %s %s\n", tag, digest(y))
		fmt.Fprintf(out, "DistCG %s %s rr=%x\n", tag, digest(cgx), math.Float64bits(rr))
	}

	// FFT2D forward and inverse on row layouts with ragged row blocks.
	for _, tc := range []struct{ n, mb, p int }{{64, 3, 3}, {32, 5, 4}, {16, 2, 1}} {
		l := blockcyclic.Layout{M: tc.n, N: 2 * tc.n, MB: tc.mb, NB: 2 * tc.n, Grid: grid.Row1D(tc.p)}
		rng := rand.New(rand.NewSource(int64(tc.n)))
		img := make([]float64, tc.n*2*tc.n)
		for i := range img {
			img[i] = rng.NormFloat64()
		}
		for _, inverse := range []bool{false, true} {
			pieces := blockcyclic.Distribute(img, l)
			onGrid(t, l.Grid, func(ctx *blacs.Context) error {
				return FFT2D(ctx, l, pieces[ctx.Comm.Rank()].Data, inverse)
			})
			fmt.Fprintf(out, "FFT2D n=%d mb=%d p=%d inverse=%v %s\n", tc.n, tc.mb, tc.p, inverse,
				digest(blockcyclic.Collect(pieces, l)))
		}
	}
}

// TestOutputsGolden pins every output of the five array applications bit
// for bit: the arrays and replicated vectors each leaves after the
// benchmark's grid tour, at the benchmark's sizes and at ragged ones, and
// the direct outputs of the distributed kernels on ragged layouts. The
// kernels may be rewritten for speed, but every float operation must keep
// its order; testdata/outputs.golden changes only under -update, and a
// change to it is a change in results.
func TestOutputsGolden(t *testing.T) {
	var out bytes.Buffer
	for _, tc := range []struct {
		cfg  Config
		tour []grid.Topology
	}{
		{Config{App: "lu", N: 256, NB: 16, Iterations: 7}, goldenTour2D},
		{Config{App: "mm", N: 192, NB: 16, Iterations: 7}, goldenTour2D},
		{Config{App: "jacobi", N: 1280, NB: 8, Iterations: 7, Sweeps: 1}, goldenTour1D},
		{Config{App: "fft", N: 256, NB: 8, Iterations: 7}, goldenTour1D},
		{Config{App: "cg", N: 1024, NB: 16, Iterations: 7, Sweeps: 1}, goldenTour2D},
		{Config{App: "lu", N: 100, NB: 7, Iterations: 7}, goldenTour2D},
		{Config{App: "mm", N: 90, NB: 11, Iterations: 7}, goldenTour2D},
		{Config{App: "jacobi", N: 101, NB: 9, Iterations: 7, Sweeps: 2}, goldenTour1D},
		{Config{App: "fft", N: 64, NB: 3, Iterations: 7}, goldenTour1D},
		{Config{App: "cg", N: 101, NB: 9, Iterations: 7, Sweeps: 2}, goldenTour2D},
	} {
		tourDigests(t, &out, tc.cfg, tc.tour)
	}
	directDigests(t, &out)

	path := filepath.Join("testdata", "outputs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, e)
		}
	}
}
