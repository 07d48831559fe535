package redistrib

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/blockcyclic"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// poisoned returns n NaNs: a recycled destination piece is not cleared, so
// any float the inbound block classes fail to overwrite stays NaN and
// compares unequal to everything.
func poisoned(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.NaN()
	}
	return xs
}

// runFused distributes random global matrices for every array, executes
// the MultiPlan on them and requires every new piece to equal a direct
// distribution under the destination layouts. The engine runs three times:
// into fresh pieces, into NaN-filled pieces of the exact size, and into
// NaN-filled over-capacity spares of the wrong length.
func runFused(srcs, dsts []blockcyclic.Layout, seed int64) error {
	n := len(srcs)
	srcPieces := make([][]*blockcyclic.Matrix, n)
	wantPieces := make([][]*blockcyclic.Matrix, n)
	for a := 0; a < n; a++ {
		global := randomGlobal(srcs[a], seed+int64(a))
		srcPieces[a] = blockcyclic.Distribute(global, srcs[a])
		wantPieces[a] = blockcyclic.Distribute(global, dsts[a])
	}
	mp, err := NewMultiPlan(srcs, dsts)
	if err != nil {
		return err
	}
	p, q := srcs[0].Grid.Count(), dsts[0].Grid.Count()
	return mpi.Run(max(p, q), func(c *mpi.Comm) error {
		mine := make([][]float64, n)
		if c.Rank() < p {
			for a := 0; a < n; a++ {
				mine[a] = srcPieces[a][c.Rank()].Data
			}
		}
		fresh, freshStats := mp.ExecuteStats(c, mine)
		exact, roomy := make([][]float64, n), make([][]float64, n)
		spares := make([][]float64, n)
		for a := 0; a < n; a++ {
			size := 3 // ranks outside the destination grid must drop what they offer
			if c.Rank() < q {
				size = dsts[a].LocalSize(c.Rank())
			}
			exact[a] = poisoned(size)
			spares[a] = poisoned(size + 5)
			roomy[a] = spares[a][:1]
		}
		exactStats := mp.ExecuteInto(c, mine, exact)
		roomyStats := mp.ExecuteInto(c, mine, roomy)
		if exactStats != freshStats || roomyStats != freshStats {
			return fmt.Errorf("rank %d: stats differ by destination: fresh %+v exact %+v roomy %+v",
				c.Rank(), freshStats, exactStats, roomyStats)
		}
		for a := 0; a < n; a++ {
			if c.Rank() >= q {
				if fresh[a] != nil || exact[a] != nil || roomy[a] != nil {
					return fmt.Errorf("rank %d outside dst grid received data for array %d", c.Rank(), a)
				}
				continue
			}
			want := wantPieces[a][c.Rank()].Data
			if len(want) > 0 && &roomy[a][0] != &spares[a][0] {
				return fmt.Errorf("array %d rank %d: a spare with room was not reused", a, c.Rank())
			}
			for name, fused := range map[string][]float64{"fresh": fresh[a], "exact": exact[a], "roomy": roomy[a]} {
				if err := samePiece(c.Rank(), fused, want); err != nil {
					return fmt.Errorf("array %d %s: %w", a, name, err)
				}
			}
		}
		return nil
	})
}

// TestMultiPlanDifferentialRandomized pins the fused engine to
// blockcyclic.Distribute across randomized (shape, grid-pair, array-count)
// cases.
func TestMultiPlanDifferentialRandomized(t *testing.T) {
	const cases = 24
	rng := rand.New(rand.NewSource(42))
	for cse := 0; cse < cases; cse++ {
		from := grid.Topology{Rows: rng.Intn(3) + 1, Cols: rng.Intn(3) + 1}
		to := grid.Topology{Rows: rng.Intn(3) + 1, Cols: rng.Intn(3) + 1}
		nArrays := rng.Intn(4) + 1
		srcs := make([]blockcyclic.Layout, nArrays)
		dsts := make([]blockcyclic.Layout, nArrays)
		for a := 0; a < nArrays; a++ {
			m, n := rng.Intn(20)+1, rng.Intn(20)+1
			mb, nb := rng.Intn(4)+1, rng.Intn(4)+1
			srcs[a] = blockcyclic.Layout{M: m, N: n, MB: mb, NB: nb, Grid: from}
			dsts[a] = blockcyclic.Layout{M: m, N: n, MB: mb, NB: nb, Grid: to}
		}
		if err := runFused(srcs, dsts, int64(1000+cse)); err != nil {
			t.Fatalf("case %d (%v -> %v, %d arrays): %v", cse, from, to, nArrays, err)
		}
	}
}

// TestCirculantStepsMatchesThePlan holds grid.CirculantSteps, the step
// count the performance model and the schedule ablation use, to the
// schedule a MultiPlan actually executes, for every pair of grids up to 6×6.
func TestCirculantStepsMatchesThePlan(t *testing.T) {
	var grids []grid.Topology
	for r := 1; r <= 6; r++ {
		for c := 1; c <= 6; c++ {
			grids = append(grids, grid.Topology{Rows: r, Cols: c})
		}
	}
	for _, from := range grids {
		for _, to := range grids {
			mp, err := NewMultiPlan(
				[]blockcyclic.Layout{{M: 6, N: 6, MB: 1, NB: 1, Grid: from}},
				[]blockcyclic.Layout{{M: 6, N: 6, MB: 1, NB: 1, Grid: to}})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := grid.CirculantSteps(from, to), mp.Steps(); got != want {
				t.Errorf("%v -> %v: CirculantSteps %d, plan has %d steps", from, to, got, want)
			}
		}
	}
}

func TestMultiPlanSingleArray(t *testing.T) {
	src := []blockcyclic.Layout{{M: 13, N: 11, MB: 3, NB: 2, Grid: grid.Topology{Rows: 2, Cols: 2}}}
	dst := []blockcyclic.Layout{{M: 13, N: 11, MB: 3, NB: 2, Grid: grid.Topology{Rows: 3, Cols: 2}}}
	if err := runFused(src, dst, 7); err != nil {
		t.Fatal(err)
	}
}

func TestMultiPlanMixedShapes(t *testing.T) {
	// Arrays with different global and block shapes fused onto one grid
	// pair, as an application registering A, B and a vector would produce.
	from, to := grid.Topology{Rows: 2, Cols: 2}, grid.Topology{Rows: 2, Cols: 3}
	srcs := []blockcyclic.Layout{
		{M: 16, N: 16, MB: 2, NB: 2, Grid: from},
		{M: 9, N: 7, MB: 3, NB: 1, Grid: from},
		{M: 16, N: 1, MB: 2, NB: 1, Grid: from},
	}
	dsts := make([]blockcyclic.Layout, len(srcs))
	for i, s := range srcs {
		s.Grid = to
		dsts[i] = s
	}
	if err := runFused(srcs, dsts, 8); err != nil {
		t.Fatal(err)
	}
}

// sumStats sums the per-rank traffic of one run across all ranks.
func sumStats(t *testing.T, world int, run func(c *mpi.Comm) Stats) Stats {
	t.Helper()
	ch := make(chan Stats, world)
	err := mpi.Run(world, func(c *mpi.Comm) error {
		ch <- run(c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(ch)
	var total Stats
	for s := range ch {
		total.Add(s)
	}
	return total
}

// TestMultiPlanFusesMessages is the acceptance gate for the fused engine:
// for 3 arrays it must send at least 2x fewer (here exactly 3x fewer)
// messages than per-array execution of the same redistribution, recorded
// below from one execution per array.
func TestMultiPlanFusesMessages(t *testing.T) {
	from, to := grid.Topology{Rows: 2, Cols: 2}, grid.Topology{Rows: 2, Cols: 3}
	const nArrays = 3
	perArray := Stats{MessagesSent: 27, MessagesRecv: 27, FloatsSent: 324, FloatsRecv: 324, LocalCopies: 9, FloatsCopied: 108}
	srcs := make([]blockcyclic.Layout, nArrays)
	dsts := make([]blockcyclic.Layout, nArrays)
	srcPieces := make([][]*blockcyclic.Matrix, nArrays)
	rng := rand.New(rand.NewSource(3))
	for a := 0; a < nArrays; a++ {
		srcs[a] = blockcyclic.Layout{M: 12, N: 12, MB: 2, NB: 2, Grid: from}
		dsts[a] = blockcyclic.Layout{M: 12, N: 12, MB: 2, NB: 2, Grid: to}
		global := make([]float64, 144)
		for i := range global {
			global[i] = rng.NormFloat64()
		}
		srcPieces[a] = blockcyclic.Distribute(global, srcs[a])
	}
	mp, err := NewMultiPlan(srcs, dsts)
	if err != nil {
		t.Fatal(err)
	}

	fused := sumStats(t, 6, func(c *mpi.Comm) Stats {
		mine := make([][]float64, nArrays)
		if c.Rank() < 4 {
			for a := 0; a < nArrays; a++ {
				mine[a] = srcPieces[a][c.Rank()].Data
			}
		}
		_, st := mp.ExecuteStats(c, mine)
		return st
	})

	if fused.MessagesSent >= perArray.MessagesSent {
		t.Fatalf("fused engine sent %d messages, per-array %d", fused.MessagesSent, perArray.MessagesSent)
	}
	if 2*fused.MessagesSent > perArray.MessagesSent {
		t.Errorf("fused engine sent %d messages, want <= half of per-array %d",
			fused.MessagesSent, perArray.MessagesSent)
	}
	if fused.FloatsSent != perArray.FloatsSent {
		t.Errorf("fused moved %d floats over the network, per-array %d", fused.FloatsSent, perArray.FloatsSent)
	}
	if fused.FloatsSent+fused.FloatsCopied != nArrays*144 {
		t.Errorf("sent %d + copied %d floats, want every element accounted (%d)",
			fused.FloatsSent, fused.FloatsCopied, nArrays*144)
	}
}

// TestMultiPlanStatsPinned holds the per-rank traffic accounting to the
// values the armed-receive executor produced for the same grids (3 arrays,
// 12x12, 2x2 blocks): the rewrite changed how often a byte is touched, not
// the schedule or the traffic, and perfmodel.CalibrateRedist feeds on these.
func TestMultiPlanStatsPinned(t *testing.T) {
	g22, g23, g33 := grid.Topology{Rows: 2, Cols: 2}, grid.Topology{Rows: 2, Cols: 3}, grid.Topology{Rows: 3, Cols: 3}
	keep := Stats{MessagesSent: 2, MessagesRecv: 1, FloatsSent: 72, FloatsRecv: 36, LocalCopies: 1, FloatsCopied: 36}
	osc := Stats{MessagesSent: 8, MessagesRecv: 3, FloatsSent: 96, FloatsRecv: 36, LocalCopies: 1, FloatsCopied: 12}
	joins := Stats{MessagesRecv: 4, FloatsRecv: 48}
	cases := []struct {
		from, to grid.Topology
		want     []Stats
	}{
		{g22, g23, []Stats{keep, keep, {MessagesSent: 3, MessagesRecv: 2, FloatsSent: 108, FloatsRecv: 72}, keep,
			{MessagesRecv: 2, FloatsRecv: 72}, {MessagesRecv: 2, FloatsRecv: 72}}},
		{g22, g33, []Stats{osc, osc, osc, osc, joins, joins, joins, joins, joins}},
	}
	for _, cse := range cases {
		// The reverse direction is the same traffic with the roles swapped.
		back := make([]Stats, len(cse.want))
		for r, w := range cse.want {
			back[r] = Stats{MessagesSent: w.MessagesRecv, MessagesRecv: w.MessagesSent,
				FloatsSent: w.FloatsRecv, FloatsRecv: w.FloatsSent, LocalCopies: w.LocalCopies, FloatsCopied: w.FloatsCopied}
		}
		for _, dir := range []struct {
			from, to grid.Topology
			want     []Stats
		}{{cse.from, cse.to, cse.want}, {cse.to, cse.from, back}} {
			srcs := make([]blockcyclic.Layout, 3)
			dsts := make([]blockcyclic.Layout, 3)
			for a := range srcs {
				srcs[a] = blockcyclic.Layout{M: 12, N: 12, MB: 2, NB: 2, Grid: dir.from}
				dsts[a] = blockcyclic.Layout{M: 12, N: 12, MB: 2, NB: 2, Grid: dir.to}
			}
			mp, err := NewMultiPlan(srcs, dsts)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]Stats, len(dir.want))
			err = mpi.Run(len(dir.want), func(c *mpi.Comm) error {
				mine := make([][]float64, len(srcs))
				if c.Rank() < dir.from.Count() {
					for a := range mine {
						mine[a] = make([]float64, srcs[a].LocalSize(c.Rank()))
					}
				}
				_, got[c.Rank()] = mp.ExecuteStats(c, mine)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := range got {
				if got[r] != dir.want[r] {
					t.Errorf("%v -> %v rank %d: stats %+v, recorded %+v", dir.from, dir.to, r, got[r], dir.want[r])
				}
			}
		}
	}
}

// TestMultiPlanSharedAcrossRanksIsRepeatable is the contract the repo
// benchmark's ladder relies on: one MultiPlan executed by every rank
// concurrently, three times over the same source pieces, gives the same
// pieces and the same Stats each time and leaves the sources untouched —
// ExecuteStats neither retains, recycles nor writes to what it was given.
func TestMultiPlanSharedAcrossRanksIsRepeatable(t *testing.T) {
	from, to := grid.Topology{Rows: 2, Cols: 2}, grid.Topology{Rows: 3, Cols: 3}
	const nArrays = 2
	srcs := make([]blockcyclic.Layout, nArrays)
	dsts := make([]blockcyclic.Layout, nArrays)
	pieces := make([][]*blockcyclic.Matrix, nArrays)
	rng := rand.New(rand.NewSource(11))
	for a := range srcs {
		srcs[a] = blockcyclic.Layout{M: 50, N: 37, MB: 4, NB: 3, Grid: from}
		dsts[a] = blockcyclic.Layout{M: 50, N: 37, MB: 4, NB: 3, Grid: to}
		global := make([]float64, 50*37)
		for i := range global {
			global[i] = rng.NormFloat64()
		}
		pieces[a] = blockcyclic.Distribute(global, srcs[a])
	}
	mp, err := NewMultiPlan(srcs, dsts)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(to.Count(), func(c *mpi.Comm) error {
		mine := make([][]float64, nArrays)
		before := make([][]float64, nArrays)
		if c.Rank() < from.Count() {
			for a := range mine {
				mine[a] = pieces[a][c.Rank()].Data
				before[a] = append([]float64(nil), mine[a]...)
			}
		}
		var first [][]float64
		var firstStats Stats
		for rep := 0; rep < 3; rep++ {
			out, st := mp.ExecuteStats(c, mine)
			if rep == 0 {
				first, firstStats = out, st
				continue
			}
			if st != firstStats {
				return fmt.Errorf("rank %d rep %d: stats %+v, first %+v", c.Rank(), rep, st, firstStats)
			}
			for a := range out {
				if !slices.Equal(out[a], first[a]) {
					return fmt.Errorf("rank %d rep %d: array %d differs from the first execution", c.Rank(), rep, a)
				}
				if len(out[a]) > 0 && &out[a][0] == &first[a][0] {
					return fmt.Errorf("rank %d rep %d: array %d reuses the first execution's piece", c.Rank(), rep, a)
				}
			}
		}
		for a := range mine {
			if !slices.Equal(mine[a], before[a]) {
				return fmt.Errorf("rank %d: source piece %d was modified", c.Rank(), a)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultiPlanIdentityGridAllLocal(t *testing.T) {
	l := blockcyclic.Layout{M: 10, N: 10, MB: 2, NB: 2, Grid: grid.Topology{Rows: 2, Cols: 2}}
	srcs := []blockcyclic.Layout{l, l}
	rng := rand.New(rand.NewSource(9))
	globals := make([][]float64, 2)
	pieces := make([][]*blockcyclic.Matrix, 2)
	for a := range globals {
		globals[a] = make([]float64, 100)
		for i := range globals[a] {
			globals[a][i] = rng.Float64()
		}
		pieces[a] = blockcyclic.Distribute(globals[a], l)
	}
	mp, err := NewMultiPlan(srcs, srcs)
	if err != nil {
		t.Fatal(err)
	}
	total := sumStats(t, 4, func(c *mpi.Comm) Stats {
		mine := [][]float64{pieces[0][c.Rank()].Data, pieces[1][c.Rank()].Data}
		got, st := mp.ExecuteStats(c, mine)
		for a := range mine {
			for i := range mine[a] {
				if got[a][i] != mine[a][i] {
					t.Errorf("rank %d array %d differs at %d", c.Rank(), a, i)
				}
			}
		}
		return st
	})
	if total.MessagesSent != 0 || total.MessagesRecv != 0 {
		t.Errorf("identity fused redistribution sent %d/recv %d messages", total.MessagesSent, total.MessagesRecv)
	}
	if total.FloatsCopied != 200 {
		t.Errorf("identity fused redistribution copied %d floats, want 200", total.FloatsCopied)
	}
}

func TestNewMultiPlanRejectsBadInputs(t *testing.T) {
	g22 := grid.Topology{Rows: 2, Cols: 2}
	g23 := grid.Topology{Rows: 2, Cols: 3}
	a := blockcyclic.Layout{M: 8, N: 8, MB: 2, NB: 2, Grid: g22}
	b := blockcyclic.Layout{M: 8, N: 8, MB: 2, NB: 2, Grid: g23}
	if _, err := NewMultiPlan(nil, nil); err == nil {
		t.Error("empty array set accepted")
	}
	if _, err := NewMultiPlan([]blockcyclic.Layout{a, a}, []blockcyclic.Layout{b}); err == nil {
		t.Error("length mismatch accepted")
	}
	// Second array on a different source grid must be rejected.
	if _, err := NewMultiPlan([]blockcyclic.Layout{a, b}, []blockcyclic.Layout{b, b}); err == nil {
		t.Error("mismatched grid pair accepted")
	}
	// A later array's shape mismatch is reported too.
	c := blockcyclic.Layout{M: 8, N: 10, MB: 2, NB: 2, Grid: g23}
	if _, err := NewMultiPlan([]blockcyclic.Layout{a, a}, []blockcyclic.Layout{b, c}); err == nil {
		t.Error("mismatched global shape accepted")
	}
}
