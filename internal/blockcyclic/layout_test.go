package blockcyclic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

func layout(m, n, mb, nb, pr, pc int) Layout {
	return Layout{M: m, N: n, MB: mb, NB: nb, Grid: grid.Topology{Rows: pr, Cols: pc}}
}

// New1D returns a row-distributed layout (block-cyclic over block rows) for
// p processors.
func New1D(m, n, mb, p int) Layout {
	return Layout{M: m, N: n, MB: mb, NB: n, Grid: grid.Row1D(p)}
}

// OwnerOfBlock returns the grid coordinates owning global block (bi, bj).
func (l Layout) OwnerOfBlock(bi, bj int) (prow, pcol int) {
	return bi % l.Grid.Rows, bj % l.Grid.Cols
}

// Rows returns the local row count.
func (m *Matrix) Rows() int {
	pr, _ := m.Layout.Coords(m.Rank)
	return m.Layout.LocalRows(pr)
}

// At returns the local element (li, lj).
func (m *Matrix) At(li, lj int) float64 { return m.Data[li*m.Cols()+lj] }

func TestValidate(t *testing.T) {
	if err := layout(8, 8, 2, 2, 2, 2).Validate(); err != nil {
		t.Errorf("valid layout rejected: %v", err)
	}
	bad := []Layout{
		layout(0, 8, 2, 2, 2, 2),
		layout(8, 8, 0, 2, 2, 2),
		layout(8, 8, 2, 2, 0, 2),
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("invalid layout %+v accepted", l)
		}
	}
}

func TestBlockCounts(t *testing.T) {
	l := layout(10, 7, 3, 2, 2, 2)
	if l.BlockRows() != 4 || l.BlockCols() != 4 {
		t.Errorf("block counts %d, %d", l.BlockRows(), l.BlockCols())
	}
	if l.BlockHeight(3) != 1 { // 10 = 3+3+3+1
		t.Errorf("last block height %d", l.BlockHeight(3))
	}
	if l.BlockWidth(3) != 1 { // 7 = 2+2+2+1
		t.Errorf("last block width %d", l.BlockWidth(3))
	}
	if l.BlockHeight(0) != 3 || l.BlockWidth(0) != 2 {
		t.Errorf("interior block %d x %d", l.BlockHeight(0), l.BlockWidth(0))
	}
}

func TestNumrocTotals(t *testing.T) {
	// Sum of LocalRows over grid rows must equal M, same for columns.
	f := func(rawM, rawMB, rawP uint8) bool {
		m := int(rawM%100) + 1
		mb := int(rawMB%10) + 1
		p := int(rawP%8) + 1
		l := layout(m, m, mb, mb, p, 1)
		total := 0
		for r := 0; r < p; r++ {
			lr := l.LocalRows(r)
			if lr < 0 {
				return false
			}
			total += lr
		}
		return total == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGlobalLocalRoundTrip(t *testing.T) {
	f := func(rawM, rawN, rawMB, rawNB, rawPR, rawPC uint8, rawI, rawJ uint16) bool {
		m := int(rawM%60) + 1
		n := int(rawN%60) + 1
		mb := int(rawMB%8) + 1
		nb := int(rawNB%8) + 1
		pr := int(rawPR%5) + 1
		pc := int(rawPC%5) + 1
		l := layout(m, n, mb, nb, pr, pc)
		i := int(rawI) % m
		j := int(rawJ) % n
		prow, pcol, li, lj := l.GlobalToLocal(i, j)
		if prow < 0 || prow >= pr || pcol < 0 || pcol >= pc {
			return false
		}
		if li >= l.LocalRows(prow) || lj >= l.LocalCols(pcol) {
			return false
		}
		gi, gj := l.LocalToGlobal(prow, pcol, li, lj)
		return gi == i && gj == j
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestOwnershipMatchesGlobalToLocal(t *testing.T) {
	l := layout(12, 12, 2, 3, 2, 2)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			pr, pc, _, _ := l.GlobalToLocal(i, j)
			bpr, bpc := l.OwnerOfBlock(i/l.MB, j/l.NB)
			if pr != bpr || pc != bpc {
				t.Fatalf("(%d,%d): element owner (%d,%d) vs block owner (%d,%d)", i, j, pr, pc, bpr, bpc)
			}
		}
	}
}

func TestDistributeCollectRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []Layout{
		layout(16, 16, 2, 2, 2, 2),
		layout(17, 13, 3, 2, 2, 3),
		layout(8, 8, 8, 8, 1, 1),
		layout(10, 10, 1, 1, 3, 3),
		layout(9, 4, 2, 2, 4, 1),
		New1D(12, 6, 2, 3),
	} {
		global := make([]float64, tc.M*tc.N)
		for i := range global {
			global[i] = rng.NormFloat64()
		}
		pieces := Distribute(global, tc)
		back := Collect(pieces, tc)
		for i := range global {
			if back[i] != global[i] {
				t.Fatalf("layout %+v: mismatch at %d", tc, i)
			}
		}
	}
}

func TestLocalSizesAccountForAllElements(t *testing.T) {
	f := func(rawM, rawN, rawMB, rawNB, rawPR, rawPC uint8) bool {
		l := layout(int(rawM%50)+1, int(rawN%50)+1, int(rawMB%6)+1, int(rawNB%6)+1,
			int(rawPR%4)+1, int(rawPC%4)+1)
		total := 0
		for r := 0; r < l.Grid.Count(); r++ {
			total += l.LocalSize(r)
		}
		return total == l.M*l.N
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatrixAtSet(t *testing.T) {
	l := layout(8, 8, 2, 2, 2, 2)
	m := NewMatrix(l, 3) // grid (1,1)
	if m.Rows() != 4 || m.Cols() != 4 {
		t.Fatalf("local dims %dx%d", m.Rows(), m.Cols())
	}
	m.Set(2, 3, 42)
	if m.At(2, 3) != 42 {
		t.Error("At/Set mismatch")
	}
}

func TestRankCoordsRoundTrip(t *testing.T) {
	l := layout(4, 4, 1, 1, 3, 4)
	for r := 0; r < 12; r++ {
		pr, pc := l.Coords(r)
		if l.Rank(pr, pc) != r {
			t.Fatalf("rank %d -> (%d,%d) -> %d", r, pr, pc, l.Rank(pr, pc))
		}
	}
}

func TestNew1DLayout(t *testing.T) {
	l := New1D(12, 5, 3, 4)
	if l.Grid.Rows != 4 || l.Grid.Cols != 1 {
		t.Fatalf("grid %v", l.Grid)
	}
	// Each of the 4 procs owns one 3-row block; all own all 5 columns.
	for r := 0; r < 4; r++ {
		if l.LocalRows(r) != 3 {
			t.Errorf("proc %d rows %d", r, l.LocalRows(r))
		}
	}
	if l.LocalCols(0) != 5 {
		t.Errorf("cols %d", l.LocalCols(0))
	}
}
