package redistrib

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blockcyclic"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// runRedistribution distributes a random global matrix under src, runs a
// one-array MultiPlan on a communicator spanning both grids, and checks
// every destination piece against a direct distribution under dst.
func runRedistribution(t *testing.T, src, dst blockcyclic.Layout, seed int64) {
	t.Helper()
	if err := checkRedistribution(src, dst, seed); err != nil {
		t.Fatalf("src %v dst %v: %v", src.Grid, dst.Grid, err)
	}
}

// checkRedistribution is the assertion core shared with the property test.
// The new pieces come from a NaN stock (nanStock), so a float no inbound
// block class writes fails the comparison.
func checkRedistribution(src, dst blockcyclic.Layout, seed int64) error {
	global := randomGlobal(src, seed)
	srcPieces := blockcyclic.Distribute(global, src)
	wantPieces := blockcyclic.Distribute(global, dst)
	mp, err := NewMultiPlan([]blockcyclic.Layout{src}, []blockcyclic.Layout{dst})
	if err != nil {
		return err
	}
	p, q := src.Grid.Count(), dst.Grid.Count()
	stock := nanStock(mp, []blockcyclic.Layout{dst}, max(p, q))
	return mpi.Run(max(p, q), func(c *mpi.Comm) error {
		var mine []float64
		if c.Rank() < p {
			mine = srcPieces[c.Rank()].Data
		}
		got, _ := mp.ExecuteStats(c, [][]float64{mine})
		if c.Rank() >= q {
			if got[0] != nil {
				return fmt.Errorf("rank %d outside dst grid received data", c.Rank())
			}
			return nil
		}
		if err := checkStocked(stock, c.Rank(), 0, got[0]); err != nil {
			return err
		}
		return samePiece(c.Rank(), got[0], wantPieces[c.Rank()].Data)
	})
}

// randomGlobal returns a dense global matrix of l's shape drawn from seed.
func randomGlobal(l blockcyclic.Layout, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	global := make([]float64, l.M*l.N)
	for i := range global {
		global[i] = rng.NormFloat64()
	}
	return global
}

// samePiece compares a rank's redistributed piece with the ground truth.
func samePiece(rank int, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("rank %d: got %d floats, want %d", rank, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("rank %d: element %d = %v, want %v", rank, i, got[i], want[i])
		}
	}
	return nil
}

func l2d(m, n, mb, nb int, g grid.Topology) blockcyclic.Layout {
	return blockcyclic.Layout{M: m, N: n, MB: mb, NB: nb, Grid: g}
}

func TestRedistributeExpand2D(t *testing.T) {
	// The canonical ReSHAPE expansion: 2x2 -> 2x3 grid.
	src := l2d(12, 12, 2, 2, grid.Topology{Rows: 2, Cols: 2})
	dst := l2d(12, 12, 2, 2, grid.Topology{Rows: 2, Cols: 3})
	runRedistribution(t, src, dst, 1)
}

func TestRedistributeShrink2D(t *testing.T) {
	src := l2d(12, 12, 2, 2, grid.Topology{Rows: 3, Cols: 3})
	dst := l2d(12, 12, 2, 2, grid.Topology{Rows: 2, Cols: 2})
	runRedistribution(t, src, dst, 2)
}

func TestRedistributeTable2Chain8000Scaled(t *testing.T) {
	// Walk the paper's Table 2 chain for n=8000, scaled down 1000x, hopping
	// config to config exactly as repeated expansions would.
	chain := grid.GrowthChain(grid.Topology{Rows: 1, Cols: 2}, 8, 50)
	for i := 0; i+1 < len(chain); i++ {
		src := l2d(8, 8, 1, 1, chain[i])
		dst := l2d(8, 8, 1, 1, chain[i+1])
		runRedistribution(t, src, dst, int64(10+i))
	}
}

func TestRedistribute1DRowFormats(t *testing.T) {
	src := blockcyclic.Layout{M: 24, N: 6, MB: 2, NB: 6, Grid: grid.Row1D(3)}
	dst := blockcyclic.Layout{M: 24, N: 6, MB: 2, NB: 6, Grid: grid.Row1D(4)}
	runRedistribution(t, src, dst, 3)
	// and shrink back
	runRedistribution(t, dst, src, 4)
}

func TestRedistribute1DColumnFormat(t *testing.T) {
	src := l2d(6, 24, 6, 2, grid.Topology{Rows: 1, Cols: 4})
	dst := l2d(6, 24, 6, 2, grid.Topology{Rows: 1, Cols: 2})
	runRedistribution(t, src, dst, 5)
}

func TestRedistributeIdentityGrid(t *testing.T) {
	// Same grid on both sides: pure local copy, no messages.
	l := l2d(10, 10, 2, 2, grid.Topology{Rows: 2, Cols: 2})
	mp, err := NewMultiPlan([]blockcyclic.Layout{l}, []blockcyclic.Layout{l})
	if err != nil {
		t.Fatal(err)
	}
	pieces := blockcyclic.Distribute(randomGlobal(l, 6), l)
	stock := nanStock(mp, []blockcyclic.Layout{l}, 4)
	err = mpi.Run(4, func(c *mpi.Comm) error {
		want := pieces[c.Rank()].Data
		got, stats := mp.ExecuteStats(c, [][]float64{want})
		if err := checkStocked(stock, c.Rank(), 0, got[0]); err != nil {
			return err
		}
		if stats.MessagesSent != 0 || stats.MessagesRecv != 0 {
			return fmt.Errorf("identity redistribution sent %d/recv %d messages", stats.MessagesSent, stats.MessagesRecv)
		}
		if stats.FloatsCopied != len(want) {
			return fmt.Errorf("rank %d copied %d floats locally, want %d", c.Rank(), stats.FloatsCopied, len(want))
		}
		return samePiece(c.Rank(), got[0], want)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRedistributeUnevenEdgeBlocks(t *testing.T) {
	// M, N not divisible by the block size: short edge blocks must move
	// intact.
	src := l2d(13, 11, 3, 4, grid.Topology{Rows: 2, Cols: 2})
	dst := l2d(13, 11, 3, 4, grid.Topology{Rows: 3, Cols: 2})
	runRedistribution(t, src, dst, 7)
}

func TestRedistributeToSingleProcessor(t *testing.T) {
	src := l2d(8, 8, 2, 2, grid.Topology{Rows: 2, Cols: 4})
	dst := l2d(8, 8, 2, 2, grid.Topology{Rows: 1, Cols: 1})
	runRedistribution(t, src, dst, 8)
}

func TestRedistributeFromSingleProcessor(t *testing.T) {
	src := l2d(8, 8, 2, 2, grid.Topology{Rows: 1, Cols: 1})
	dst := l2d(8, 8, 2, 2, grid.Topology{Rows: 2, Cols: 4})
	runRedistribution(t, src, dst, 9)
}

func TestRedistributeCoprimeGrids(t *testing.T) {
	src := l2d(30, 30, 2, 2, grid.Topology{Rows: 3, Cols: 5})
	dst := l2d(30, 30, 2, 2, grid.Topology{Rows: 5, Cols: 2})
	runRedistribution(t, src, dst, 10)
}

func TestRedistributePropertyRandomLayouts(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	f := func(rawM, rawN, rawMB, rawNB, g1r, g1c, g2r, g2c uint8, seed int64) bool {
		m := int(rawM%20) + 1
		n := int(rawN%20) + 1
		mb := int(rawMB%4) + 1
		nb := int(rawNB%4) + 1
		src := l2d(m, n, mb, nb, grid.Topology{Rows: int(g1r%3) + 1, Cols: int(g1c%3) + 1})
		dst := l2d(m, n, mb, nb, grid.Topology{Rows: int(g2r%3) + 1, Cols: int(g2c%3) + 1})
		return checkRedistribution(src, dst, seed) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNewPlanRejectsMismatchedShapes(t *testing.T) {
	one := func(l blockcyclic.Layout) []blockcyclic.Layout { return []blockcyclic.Layout{l} }
	a := l2d(8, 8, 2, 2, grid.Topology{Rows: 2, Cols: 2})
	b := l2d(8, 10, 2, 2, grid.Topology{Rows: 2, Cols: 2})
	if _, err := NewMultiPlan(one(a), one(b)); err == nil {
		t.Error("mismatched global shapes accepted")
	}
	c := l2d(8, 8, 2, 4, grid.Topology{Rows: 2, Cols: 2})
	if _, err := NewMultiPlan(one(a), one(c)); err == nil {
		t.Error("mismatched block shapes accepted")
	}
}

func TestPlanStepsBound(t *testing.T) {
	src := l2d(24, 24, 2, 2, grid.Topology{Rows: 2, Cols: 3})
	dst := l2d(24, 24, 2, 2, grid.Topology{Rows: 4, Cols: 6})
	mp, err := NewMultiPlan([]blockcyclic.Layout{src}, []blockcyclic.Layout{dst})
	if err != nil {
		t.Fatal(err)
	}
	// rows: 2->4 is 2 steps; cols: 3->6 is 2 steps; combined 4.
	if mp.Steps() != 4 {
		t.Errorf("Steps() = %d, want 4", mp.Steps())
	}
}

func TestExecuteStatsCountsTraffic(t *testing.T) {
	src := l2d(8, 8, 2, 2, grid.Topology{Rows: 1, Cols: 2})
	dst := l2d(8, 8, 2, 2, grid.Topology{Rows: 2, Cols: 2})
	mp, err := NewMultiPlan([]blockcyclic.Layout{src}, []blockcyclic.Layout{dst})
	if err != nil {
		t.Fatal(err)
	}
	global := make([]float64, 64)
	for i := range global {
		global[i] = float64(i)
	}
	pieces := blockcyclic.Distribute(global, src)
	sum := sumStats(t, 4, func(c *mpi.Comm) Stats {
		var mine []float64
		if c.Rank() < 2 {
			mine = pieces[c.Rank()].Data
		}
		_, stats := mp.ExecuteStats(c, [][]float64{mine})
		return stats
	})
	// Half the matrix stays on ranks 0-1 (local rows), half moves to the new
	// grid row: exactly 32 floats must cross and the other 32 move by local
	// copy, so sent + copied accounts for every element.
	if sum.FloatsSent != 32 {
		t.Errorf("total floats sent = %d, want 32", sum.FloatsSent)
	}
	if sum.FloatsCopied != 32 {
		t.Errorf("total floats copied locally = %d, want 32", sum.FloatsCopied)
	}
	if sum.FloatsSent+sum.FloatsCopied != 64 {
		t.Errorf("sent %d + copied %d != 64 elements", sum.FloatsSent, sum.FloatsCopied)
	}
}

func TestRedistributeSeveralArraysBackToBack(t *testing.T) {
	// Several one-array executions on the same communicator: per-pair FIFO
	// order must keep each execution's step tags from matching the next
	// execution's messages.
	src := l2d(8, 8, 2, 2, grid.Topology{Rows: 2, Cols: 2})
	dst := l2d(8, 8, 2, 2, grid.Topology{Rows: 2, Cols: 3})
	const arrays = 3
	srcPieces := make([][]*blockcyclic.Matrix, arrays)
	wantPieces := make([][]*blockcyclic.Matrix, arrays)
	for a := 0; a < arrays; a++ {
		global := randomGlobal(src, int64(13+a))
		srcPieces[a] = blockcyclic.Distribute(global, src)
		wantPieces[a] = blockcyclic.Distribute(global, dst)
	}
	mp, err := NewMultiPlan([]blockcyclic.Layout{src}, []blockcyclic.Layout{dst})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(6, func(c *mpi.Comm) error {
		for a := 0; a < arrays; a++ {
			var mine []float64
			if c.Rank() < 4 {
				mine = srcPieces[a][c.Rank()].Data
			}
			got, _ := mp.ExecuteStats(c, [][]float64{mine})
			if err := samePiece(c.Rank(), got[0], wantPieces[a][c.Rank()].Data); err != nil {
				return fmt.Errorf("array %d: %w", a, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
